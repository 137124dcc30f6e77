"""Differentiable test problems with analytic gradients, plus dataset
generation and loading.

Every problem exposes the same surface (:class:`Problem`): a mean loss over
a batch of training rows, fused with its analytic gradient, and held-out
test metrics.  Losses are means of per-sample losses, so the gradient of a
batch equals the mean of the one-row gradients.  Each dataset model
(logistic, softmax, MLP) states its math once: a forward pass, a
cross-entropy head (sigmoid or softmax) and a pull-back from the head's
residual to the gradient.  Its fused call returns the batch loss with the
gradient from that one forward pass, so a training step runs the model
forward once.

Forward-only evaluation (``loss``, ``test_loss``, ``test_accuracy``) runs
over the row blocks of :func:`sofim.core.blocks`, each holding at most
:data:`sofim.core.BLOCK` float64 elements of the model's widest per-row
intermediate, so its memory is O(block x width) rather than O(rows x
width).  Per-row losses fill one vector that is averaged once, and
accuracy counts hits per block, so the results are bitwise those of one
pass wherever the BLAS rounds a block's rows as it rounds the whole
split's; it does for the shipped shapes.
Gradients are not blocked: their row sums are reductions, and summing them
block by block would round differently.  A problem keeps only its gathered
train and test splits, not the dataset it was built from.

Parameters are always a single flat float64 vector; problems with several
weight arrays (the MLP) define a fixed, documented flattening order.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from sofim.core import blocks
from sofim.exceptions import ConfigError, DimensionMismatchError, convert, require

__all__ = [
    "Dataset",
    "Problem",
    "QuadraticProblem",
    "LogisticRegressionProblem",
    "SoftmaxRegressionProblem",
    "MlpProblem",
    "make_quadratic",
    "make_blobs",
    "load_csv_dataset",
    "minibatch_epochs",
    "finite_difference_gradient",
    "gradient_check",
    "SPEC_SCHEMA",
    "canonical_spec",
    "problem_from_spec",
]


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Feature matrix + integer labels with a fixed train/test split: there
    is at least one feature column, and both splits are non-empty, index
    rows in ``[0, n)``, list no row twice and share no row."""

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
        require(self.features.ndim == 2 and self.features.shape[1] >= 1,
                f"the dataset has no feature column: features have shape {self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise DimensionMismatchError(
                f"labels shape {self.labels.shape} does not match {n} feature rows"
            )
        require(np.isfinite(self.features).all(), "features contain NaN or Inf")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ConfigError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )
        _check_splits(n, self.train_idx, self.test_idx)

    @property
    def n_train(self) -> int:
        return self.train_idx.shape[0]

    @property
    def n_test(self) -> int:
        return self.test_idx.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _check_splits(n: int, train_idx: np.ndarray, test_idx: np.ndarray):
    """Refuse an empty split, an index outside ``[0, n)`` (a negative index
    would wrap onto a row the other split may hold), a row listed twice in
    one split (it would weigh twice in every mean) and a row in both
    splits, each with a ``ConfigError`` naming the split."""
    taken, listed = np.zeros(n, dtype=bool), 0
    for name, idx in (("train", train_idx), ("test", test_idx)):
        require(idx.size, f"the {name} split is empty: {train_idx.size} of {n} rows "
                          f"go to train and {test_idx.size} to test")
        lo, hi = idx.min(), idx.max()
        require(lo >= 0 and hi < n,
                f"{name} split indices must lie in [0, {n}), got range [{lo}, {hi}]")
        require(not taken[idx].any(), "train and test splits overlap")
        taken[idx] = True
        listed += idx.size
        if np.count_nonzero(taken) < listed:
            row = np.flatnonzero(np.bincount(idx) > 1)[0]
            raise ConfigError(f"the {name} split lists row {row} more than once")


def make_blobs(n: int, p: int, c: int, spread: float, seed: int) -> Dataset:
    """Gaussian blob classification data with an 80/20 split.

    ``c`` cluster centers, one per class, are random unit vectors scaled
    by ``spread``; samples add unit-variance Gaussian noise.  Class counts
    are balanced to within one sample.  Deterministic in ``seed``.
    """
    require(n >= c >= 2, f"need n >= classes >= 2, got n={n}, classes={c}")
    require(p >= 1, f"the dataset has no feature column: need p >= 1, got p={p}")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, p))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    centers *= spread

    base, rem = divmod(n, c)
    counts = np.full(c, base)
    counts[:rem] += 1
    labels = np.repeat(np.arange(c), counts)
    features = rng.standard_normal((n, p))
    # The labels come sorted, so each center is added to its own run of
    # rows, with no n x p gather of centers.
    start = 0
    for center, count in zip(centers, counts.tolist()):
        features[start : start + count] += center
        start += count

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
    """Load a numeric UTF-8 CSV (header row, comma separators, '.' decimals);
    a leading byte-order mark, as Excel writes one, is dropped.

    ``label_column`` names the integer class column, once in the header;
    its distinct values, at least 2, map onto ``0..C-1`` in increasing
    order; a non-finite or non-integral label, or a ``path`` that is not a
    file, is a ``ConfigError``.  Features are standardized per column to
    mean 0 / variance 1 using train-split statistics only; constant columns
    standardize to 0.  The train split holds ``round(split_fraction * N)``
    rows chosen by a seeded shuffle.
    """
    require(0.0 < split_fraction < 1.0, f"split_fraction must lie in (0, 1), got {split_fraction}")
    require(os.path.isfile(path), f"problem key 'path' names no file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        require(header is not None, f"{path}: file is empty")
        header = [h.strip() for h in header]
        require(label_column in header,
                f"{path}: label column {label_column!r} not in header {header}")
        require(header.count(label_column) == 1,
                f"{path}: header names label column {label_column!r} "
                f"{header.count(label_column)} times")
        label_pos = header.index(label_column)
        require(len(header) > 1,
                f"{path}: no feature columns besides label column {label_column!r}")
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
    require(rows, f"{path}: no data rows")

    data = np.asarray(rows, dtype=np.float64)
    raw_labels = data[:, label_pos]
    require(np.isfinite(raw_labels).all(),
            f"{path}: label column {label_column!r} has non-finite values")
    require(np.all(raw_labels == np.round(raw_labels)),
            f"{path}: label column {label_column!r} has non-integral values")
    features = np.delete(data, label_pos, axis=1)
    classes, labels = np.unique(raw_labels, return_inverse=True)
    require(len(classes) >= 2, f"{path}: label column {label_column!r} holds one value, "
                               f"{classes[0]:g}; a classifier needs at least 2")
    num_classes = len(classes)

    n = features.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(split_fraction * n))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    _check_splits(n, train_idx, test_idx)  # an empty train split has no statistics

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
    while True:
        perm = rng.permutation(n_train)
        for start in range(0, n_train, batch_size):
            yield perm[start : start + batch_size]


# ---------------------------------------------------------------------------
# problems


class Problem:
    """Loss over (flat parameter vector, batch of train rows).

    ``batch`` arguments are integer indices into the train split;
    ``None`` means the full train split.  A problem implements ``loss``,
    ``test_loss`` and the fused ``loss_and_grad``, which derives ``grad``;
    each of the three refuses a ``w`` not of shape ``(dim,)`` with
    ``DimensionMismatchError`` (:meth:`_check_w`).
    """

    dim: int
    name: str

    @property
    def n_train(self) -> int:
        raise NotImplementedError

    def loss(self, w, batch=None) -> float:
        raise NotImplementedError

    def loss_and_grad(self, w, batch=None) -> tuple:
        """``(loss(w, batch), grad(w, batch))``, for dataset problems from one
        forward pass.  On the full split (``batch=None``) that pass covers
        every row while ``loss`` runs over row blocks, so the two losses are
        equal bitwise only where the BLAS rounds a block's rows as it rounds
        the whole split's; it does for the shipped shapes, not for every
        hidden width (see the module docstring)."""
        raise NotImplementedError

    def grad(self, w, batch=None) -> np.ndarray:
        return self.loss_and_grad(w, batch)[1]

    def test_loss(self, w) -> float:
        raise NotImplementedError

    def test_accuracy(self, w) -> float:
        """Fraction of correct test predictions, or NaN when the problem
        has no classification semantics."""
        return np.nan

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _check_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.dim,):
            raise DimensionMismatchError(f"w must have shape ({self.dim},), got {w.shape}")
        return w


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
        require(np.max(np.abs(a - a.T)) <= 1e-10, "A must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        require(eigs.min() > 0, f"A must be positive definite, min eigenvalue {eigs.min():.3e}")
        self.a_matrix = a
        self.w_star = w_star
        self.dim = w_star.shape[0]
        self.name = f"quadratic{self.dim}"

    @property
    def n_train(self) -> int:
        return 1

    def loss(self, w, batch=None) -> float:
        r = self._check_w(w) - self.w_star
        return 0.5 * float(r @ self.a_matrix @ r)

    def loss_and_grad(self, w, batch=None) -> tuple:
        return self.loss(w), self.a_matrix @ (self._check_w(w) - self.w_star)

    def test_loss(self, w) -> float:
        return self.loss(w)

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        return self.w_star + rng.standard_normal(self.dim)


def make_quadratic(d: int, condition_number: float, seed: int) -> QuadraticProblem:
    """Random-rotation quadratic with eigenvalues spread log-uniformly over
    ``[1, condition_number]`` and a random minimizer.  Deterministic in
    ``seed``."""
    require(d >= 1, f"d must be >= 1, got {d}")
    require(condition_number >= 1, f"condition_number must be >= 1, got {condition_number}")
    rng = np.random.default_rng(seed)
    eigs = np.geomspace(1.0, condition_number, d)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    return QuadraticProblem(a_matrix=a, w_star=rng.standard_normal(d))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction (no overflow).

    The row max is reduced down the columns of a contiguous transpose,
    which is about ten times faster than ``max(axis=1)`` on 5-wide rows.  A
    max rounds nothing, so it is bitwise that ``max(axis=1)`` for any class
    count, NaN, ``-inf`` and signed zeros included.  The row sum stays a
    reduction along each row: numpy sums a row of 8 or more entries in
    interleaved partial sums, so a sum down the columns would round
    differently from 8 classes on.
    """
    shifted = logits - np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    return shifted


def _mean(x: np.ndarray):
    """``x.mean(axis=0)``: the same reduce and divide, bitwise, without the
    Python-level wrapper of ``np.mean`` (about 3 us a call)."""
    return np.add.reduce(x, axis=0) / x.shape[0]


def _flat_index(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The C-order flat index of each row's ``logits[i, y[i]]``: one cheap
    ``take`` instead of a two-array fancy index."""
    rows, classes = logits.shape
    return np.arange(0, rows * classes, classes) + y


class _SigmoidHead:
    """Binary cross-entropy on one logit ``z`` per sample: the loss
    ``-(y log s + (1 - y) log(1 - s))``, ``s = sigmoid(z)``, is computed as
    ``log(1 + exp(z)) - y z`` for stability; the residual ``dloss/dz`` is
    ``s - y``.  ``z == 0`` ties predict class 0.

    ``s`` never overflows: with ``e = exp(-|z|)`` it is ``1 / (1 + e)`` for
    ``z >= 0`` and ``e / (1 + e)`` for ``z < 0``.  ``e`` is ``exp(-z)`` on the
    first branch and ``exp(z)`` on the second, so each element goes through
    the same operations as in a masked two-branch form, bitwise, from one
    ``exp`` call and no boolean gathers or scatters."""

    def losses(self, z, y):
        return np.logaddexp(0.0, z) - y * z

    def losses_and_residual(self, z, y):
        e = np.exp(-np.abs(z))
        s = np.where(z >= 0, 1.0, e) / (1.0 + e)
        s -= y
        return self.losses(z, y), s

    def predict(self, z):
        return (z > 0).astype(np.int64)


class _SoftmaxHead:
    """Cross-entropy over a row of class logits per sample; the residual
    ``dloss/dlogits`` is ``softmax(logits) - onehot(y)``, taken from the same
    log-softmax as the losses.  Ties predict the lowest class, because
    ``np.argmax`` returns the first maximum."""

    def losses(self, logits, y):
        return -_log_softmax(logits).take(_flat_index(logits, y))

    def losses_and_residual(self, logits, y):
        log_p, at_y = _log_softmax(logits), _flat_index(logits, y)
        r = np.exp(log_p, order="C")  # C order: reshape(-1) below is a view
        r.reshape(-1)[at_y] -= 1.0
        return -log_p.take(at_y), r

    def predict(self, logits):
        return np.argmax(logits, axis=1)


class _DatasetProblem(Problem):
    """A model over a Dataset, stated in three pieces: ``_forward(w, x)``
    returns ``(outputs, cache)``; ``head`` turns outputs into per-sample
    losses, those losses with the residual ``dloss/doutputs``, and
    predictions;
    ``_pullback(w, cache, residual)`` returns one ``(error, input)`` pair per
    parameter block in flat-layout order.  A weight block's gradient is
    ``error.T @ input`` over the batch size; a bias block's input is
    ``None`` and its gradient is the mean of ``error``.  Every public
    method is built here.

    ``_row_width`` is the widest per-row intermediate of a forward pass: the
    logit count, or the MLP's wider layer.  Forward-only evaluation runs
    over the row blocks ``sofim.core.blocks(rows, _row_width)``.  The problem
    keeps its gathered splits only, so the dataset's feature matrix is freed
    once nothing else holds it.
    """

    head: _SigmoidHead | _SoftmaxHead
    _row_width: int

    def __init__(self, dataset: Dataset):
        self._x_train = self._inputs(dataset.features, dataset.train_idx)
        self._y_train = dataset.labels[dataset.train_idx]
        self._x_test = self._inputs(dataset.features, dataset.test_idx)
        self._y_test = dataset.labels[dataset.test_idx]

    @staticmethod
    def _inputs(features, idx):
        """The model inputs of feature rows ``idx``."""
        return features[idx]

    @property
    def n_train(self) -> int:
        return self._x_train.shape[0]

    @property
    def n_test(self) -> int:
        return self._x_test.shape[0]

    def _select(self, batch):
        if batch is None:
            return self._x_train, self._y_train
        batch = np.asarray(batch, dtype=np.int64)
        return self._x_train.take(batch, axis=0), self._y_train.take(batch)

    def _mean_loss(self, w, x, y) -> float:
        """The mean loss over rows ``x``, forward only.  The blocks write
        their per-row losses into one vector, whose single mean rounds as
        the one-pass mean does."""
        w = self._check_w(w)
        losses = np.empty(x.shape[0])
        for rows in blocks(x.shape[0], self._row_width):  # [0] frees each block's cache early
            losses[rows] = self.head.losses(self._forward(w, x[rows])[0], y[rows])
        return float(_mean(losses))

    def loss(self, w, batch=None) -> float:
        return self._mean_loss(w, *self._select(batch))

    def loss_and_grad(self, w, batch=None) -> tuple:
        x, y = self._select(batch)
        w = self._check_w(w)
        outputs, cache = self._forward(w, x)
        losses, residual = self.head.losses_and_residual(outputs, y)
        loss, b = float(_mean(losses)), x.shape[0]
        grads = [_mean(err) if inp is None else err.T @ inp / b
                 for err, inp in self._pullback(w, cache, residual)]
        # One block is already a fresh array: return it flat, without a copy.
        return loss, grads[0].ravel() if len(grads) == 1 else np.concatenate(grads, axis=None)

    def test_loss(self, w) -> float:
        return self._mean_loss(w, self._x_test, self._y_test)

    def test_accuracy(self, w) -> float:
        w, x, y = self._check_w(w), self._x_test, self._y_test
        hits = sum(np.count_nonzero(self.head.predict(self._forward(w, x[rows])[0]) == y[rows])
                   for rows in blocks(len(y), self._row_width))
        return hits / len(y)

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
    _row_width = 1

    def __init__(self, dataset: Dataset):
        require(dataset.num_classes == 2,
                f"model 'logistic' needs binary labels, got {dataset.num_classes} classes")
        super().__init__(dataset)
        self.dim = dataset.n_features + 1
        self.name = f"logistic{self.dim}"

    @staticmethod
    def _inputs(features, idx):
        """Feature rows ``idx`` with the constant-1 bias feature appended."""
        return np.hstack([features[idx], np.ones((idx.size, 1))])

    def _weights(self, w):
        return w


class SoftmaxRegressionProblem(_LinearProblem):
    """Multinomial logistic regression: the softmax head over logits ``W x``.

    Parameters are the weight matrix ``W`` of shape (C, p) flattened
    row-major, class-by-class: ``dim = p * C``.  A one-row gradient is
    ``(softmax(W x) - onehot(y)) outer x`` in the same layout.
    """

    head = _SoftmaxHead()

    def __init__(self, dataset: Dataset):
        super().__init__(dataset)
        self.num_classes = self._row_width = dataset.num_classes
        self.n_features = dataset.n_features
        self.dim = self.n_features * self.num_classes
        self.name = f"softmax{self.num_classes}x{self.n_features}"

    def _weights(self, w):
        return w.reshape(self.num_classes, self.n_features)


class MlpProblem(_DatasetProblem):
    """One-hidden-layer classifier with manual backprop and the softmax head:
    ``hidden`` units with ``activation`` ``"tanh"`` or ``"relu"``, over the
    dataset's inputs and classes.

    Flat parameter layout, in order: W1 (hidden, inputs) row-major, b1
    (hidden,), W2 (classes, hidden) row-major, b2 (classes,).  Initial
    weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer,
    drawn in that same order.  The ReLU subgradient at 0 is taken as 0.
    """

    head = _SoftmaxHead()

    def __init__(self, dataset: Dataset, hidden: int, activation: str = "tanh"):
        require(hidden >= 1, f"hidden must be >= 1, got {hidden}")
        require(activation in ("tanh", "relu"),
                f"activation must be 'tanh' or 'relu', got {activation!r}")
        super().__init__(dataset)
        p, h, c = dataset.n_features, hidden, dataset.num_classes
        self.widths, self.activation = (p, h, c), activation
        self._row_width = max(h, c)
        sizes = (h * p, h, c * h, c)
        starts = np.cumsum((0,) + sizes[:-1]).tolist()
        self._layout = tuple(zip(starts, sizes, ((h, p), (h,), (c, h), (c,))))
        self.dim = sum(sizes)
        self.name = f"mlp{p}x{h}x{c}{activation}"

    def unflatten(self, w):
        """Split a flat vector into (W1, b1, W2, b2) views."""
        return tuple(w[start : start + size].reshape(shape)
                     for start, size, shape in self._layout)

    def flatten(self, w1, b1, w2, b2) -> np.ndarray:
        return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])

    def initial_point(self, rng: np.random.Generator) -> np.ndarray:
        p, h, c = self.widths
        bound1 = 1.0 / np.sqrt(p)
        bound2 = 1.0 / np.sqrt(h)
        w1 = rng.uniform(-bound1, bound1, size=(h, p))
        b1 = rng.uniform(-bound1, bound1, size=h)
        w2 = rng.uniform(-bound2, bound2, size=(c, h))
        b2 = rng.uniform(-bound2, bound2, size=c)
        return self.flatten(w1, b1, w2, b2)

    def _forward(self, w, x):
        w1, b1, w2, b2 = self.unflatten(w)
        # One n x hidden buffer holds the pre-activation, then the activation.
        a1 = x @ w1.T
        a1 += b1
        if self.activation == "tanh":
            np.tanh(a1, out=a1)
        else:
            np.maximum(a1, 0.0, out=a1)
        out = a1 @ w2.T
        out += b2
        return out, (x, a1)

    def _pullback(self, w, cache, r):
        x, a1 = cache
        # relu(z) > 0 exactly where z > 0 (NaN and -0.0 included), so the
        # ReLU derivative needs no pre-activation.
        tanh = self.activation == "tanh"
        act_deriv = 1.0 - a1 * a1 if tanh else (a1 > 0.0).astype(np.float64)
        dz1 = (r @ self.unflatten(w)[2]) * act_deriv
        return [(dz1, x), (dz1, None), (r, a1), (r, None)]


# ---------------------------------------------------------------------------
# verification helpers


def finite_difference_gradient(f, w) -> np.ndarray:
    """Central-difference gradient, step 1e-5, of a scalar function of a flat vector."""
    h = 1e-5
    w = np.asarray(w, dtype=np.float64)
    grad = np.empty_like(w)
    for j in range(w.shape[0]):
        step = np.zeros_like(w)
        step[j] = h
        grad[j] = (f(w + step) - f(w - step)) / (2.0 * h)
    return grad


def gradient_check(problem: Problem, rng: np.random.Generator, n_points: int = 5) -> float:
    """Max relative error between analytic and central-difference gradients
    over random (point, batch of 8 rows) pairs.

    Relative error is ``max|fd - g| / max(max|g|, 1e-8)``; a NaN error at
    any point makes the result NaN.
    """
    errors = []
    for _ in range(n_points):
        w = problem.initial_point(rng) + 0.1 * rng.standard_normal(problem.dim)
        if problem.n_train > 1:
            batch = rng.integers(0, problem.n_train, size=min(8, problem.n_train))
        else:
            batch = None
        analytic = problem.grad(w, batch)
        fd = finite_difference_gradient(lambda wv: problem.loss(wv, batch), w)
        errors.append(np.max(np.abs(fd - analytic)) / max(np.max(np.abs(analytic)), 1e-8))
    return float(np.max(errors, initial=0.0))


# ---------------------------------------------------------------------------
# declarative construction (used by the harness and CLI)

#: The model keys every dataset kind takes, each with its ``(type, default)``.
_MODEL_KEYS = {"model": (str, "logistic"), "hidden": (int, 32), "activation": (str, "tanh")}

#: The problem spec's schema: each kind's keys (``kind`` aside), each with its
#: ``(type, default)``; a default of ``None`` marks a required key.
SPEC_SCHEMA = {
    "quadratic": {"dim": (int, 20), "condition_number": (float, 10.0), "seed": (int, 0)},
    "blobs": {"n": (int, 2000), "p": (int, 20), "classes": (int, 2), "spread": (float, 3.0),
              "seed": (int, 0), **_MODEL_KEYS},
    "csv": {"path": (str, None), "label_column": (str, "label"),
            "split_fraction": (float, 0.8), "seed": (int, 0), **_MODEL_KEYS},
}

_MODELS = {"logistic": LogisticRegressionProblem, "softmax": SoftmaxRegressionProblem,
           "mlp": MlpProblem}


def canonical_spec(spec: dict) -> dict:
    """``kind`` and the keys ``spec`` gives, each converted to its type in
    :data:`SPEC_SCHEMA`, with no defaults; an unknown kind, key or model, a
    missing required key, a malformed value, a negative seed or an MLP key
    of another model raises ``ConfigError`` naming it."""
    require(isinstance(spec, dict), f"config key 'problem' must be a mapping, got {spec!r}")
    require("kind" in spec, "problem spec is missing 'kind'")
    kind = spec["kind"]
    require(kind in tuple(SPEC_SCHEMA),
            f"unknown problem kind {kind!r}; expected one of {sorted(SPEC_SCHEMA)}")
    unknown = set(spec) - {"kind", *SPEC_SCHEMA[kind]}
    require(not unknown, f"unknown problem key(s) {sorted(unknown)} for kind {kind!r}")
    v = {"kind": kind}
    for key, (key_type, default) in SPEC_SCHEMA[kind].items():
        require(key in spec or default is not None, f"{kind} problem spec is missing {key!r}")
        if key in spec:
            v[key] = convert(key_type, spec[key], f"problem key {key!r}")
    # np.random.default_rng refuses a negative seed.
    require(v.get("seed", 0) >= 0, f"problem key 'seed' must be >= 0, got {v.get('seed')}")
    model = v.get("model", _MODEL_KEYS["model"][1])
    require(model in _MODELS, f"unknown model {model!r}; expected one of {tuple(_MODELS)}")
    for key in ("hidden", "activation"):
        require(key not in v or model == "mlp",
                f"problem key {key!r} applies only to model 'mlp', not {model!r}")
    return v


def problem_from_spec(spec: dict) -> Problem:
    """Build a problem from a declarative dict (as found in config files):
    its :func:`canonical_spec`, and the defaults of the keys it leaves out."""
    v = canonical_spec(spec)
    v = {key: default for key, (_, default) in SPEC_SCHEMA[v["kind"]].items()} | v
    if v["kind"] == "quadratic":
        return make_quadratic(v["dim"], v["condition_number"], v["seed"])
    if v["kind"] == "blobs":
        dataset = make_blobs(v["n"], v["p"], v["classes"], v["spread"], v["seed"])
    else:
        dataset = load_csv_dataset(v["path"], v["label_column"], v["split_fraction"], v["seed"])
    if v["model"] != "mlp":
        return _MODELS[v["model"]](dataset)
    return MlpProblem(dataset, v["hidden"], v["activation"])
