"""Experiment harness: mini-batch training loops, per-iteration metrics,
hyperparameter sweeps, and O(d) step-cost measurement.

Every optimizer, the dense NGD and Newton oracles included, is one row of
:data:`OPTIMIZERS`: a frozen hyperparameter dataclass (its fields are the
accepted keys), the harness defaults that differ from the dataclass's, and
a stepper whose ``step(w, g)`` updates ``w`` in place.  Runs and the
scaling probe build their stepper from that row the same way, so the
training loop makes one ``stepper.step`` call per iteration, fed by one
problem call that returns the batch loss and the gradient from a single
forward pass.

A run is a pure function of its :class:`ExperimentConfig` (wall-time
columns aside): initialization, batch order and updates are all seeded.
Non-finite or exploding losses end the run early with a divergence flag
instead of crashing, so grid sweeps survive unstable corners.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from sofim import baselines, problems
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import NonFiniteError, ScaleCapError, convert, require

#: A batch loss above this counts as divergence even while still finite.
DIVERGENCE_LOSS = 1e8

#: Interleaved timing rounds of :func:`scaling_probe`.
SCALING_ROUNDS = 5

CSV_COLUMNS = (
    "iteration",
    "epoch",
    "batch_loss",
    "train_loss",
    "test_loss",
    "test_accuracy",
    "wall_ms",
)


class _Optimizer(NamedTuple):
    """One row of :data:`OPTIMIZERS`."""

    config: type  # frozen hyperparameter dataclass
    stepper: type  # built as stepper(dim, config), plus the Hessian if `hessian`
    defaults: dict = {}  # harness defaults that differ from the dataclass's
    gradient: str = "loss_and_grad"  # the problem method returning (batch loss, step's g)
    hessian: bool = False  # the stepper takes the problem's constant Hessian
    dense: bool = False  # a dense oracle: the scaling probe caps its dimension
    iterations_key: str | None = None  # defaults to the run's total_iterations


OPTIMIZERS = {
    "sofim": _Optimizer(SofimConfig, SofimOptimizer, {"eta": 0.1, "rho": 0.5}),
    "sgd_momentum": _Optimizer(baselines.SgdConfig, baselines.SgdMomentumOptimizer,
                               {"eta": 0.1, "momentum": 0.9}, iterations_key="total_steps"),
    "adam": _Optimizer(baselines.AdamConfig, baselines.AdamOptimizer, {"eta": 0.001}),
    "ngd_oracle": _Optimizer(baselines.NgdConfig, baselines.NgdOracle,
                             gradient="loss_and_per_sample_grads", dense=True),
    "newton_oracle": _Optimizer(baselines.NewtonConfig, baselines.NewtonOracle,
                                hessian=True, dense=True),
}

#: How a hyperparameter value is coerced, by its dataclass field's annotation.
_COERCE = {"float": float, "int | None": int, "str": str}


def _hyperparameters(optimizer_id: str, params: dict, total_iterations: int):
    """The table row of ``optimizer_id`` and its validated hyperparameter
    dataclass: the row's defaults overridden by ``params``, each value
    coerced to its field's type."""
    require(isinstance(params, dict),
            f"config key 'hyperparameters' must be a mapping, got {params!r}")
    require(optimizer_id in tuple(OPTIMIZERS),
            f"unknown optimizer {optimizer_id!r}; expected one of {tuple(OPTIMIZERS)}")
    row = OPTIMIZERS[optimizer_id]
    coerce = {f.name: _COERCE[f.type] for f in fields(row.config)}
    unknown = set(params) - set(coerce)
    require(not unknown,
            f"unknown hyperparameter(s) {sorted(unknown)} for optimizer {optimizer_id!r}")
    values = {**row.defaults, **params}
    if row.iterations_key:
        values.setdefault(row.iterations_key, total_iterations)
    return row, row.config(**{k: convert(coerce[k], v, f"hyperparameter {k!r}")
                              for k, v in values.items()})


def _build_stepper(optimizer_id: str, params: dict, total_iterations: int, dim: int, hessian):
    """A stepper of ``optimizer_id`` at ``dim`` with validated hyperparameters;
    ``hessian()`` is called only for the row whose stepper takes one."""
    row, config = _hyperparameters(optimizer_id, params, total_iterations)
    return row.stepper(dim, config, *((hessian(),) if row.hessian else ()))


#: Run-file keys named differently from the ExperimentConfig field they set.
KEY_OF_FIELD = {"total_iterations": "iterations", "optimizer_params": "hyperparameters"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run: problem spec, optimizer id and
    hyperparameters, batching, iteration budget, seed."""

    problem: dict
    optimizer: str
    optimizer_params: dict = field(default_factory=dict)
    batch_size: int = 512
    total_iterations: int = 1000
    eval_every: int = 50
    seed: int = 0
    loss_thresholds: tuple = ()

    def __post_init__(self):
        store = functools.partial(object.__setattr__, self)
        for f in fields(self):
            if f.type == "int":  # an error names the field's run-file key
                key = KEY_OF_FIELD.get(f.name, f.name)
                store(f.name, convert(int, getattr(self, f.name), f"config key {key!r}"))
        require(self.total_iterations >= 1,
                f"total_iterations must be >= 1, got {self.total_iterations}")
        require(self.batch_size >= 1, f"batch_size must be >= 1, got {self.batch_size}")
        require(1 <= self.eval_every <= self.total_iterations,
                f"eval_every must lie in [1, total_iterations], got {self.eval_every}")
        require(self.seed >= 0, f"seed must be >= 0, got {self.seed}")
        # Keep the given values coerced, with no defaults, so the hash names
        # what runs however a number is spelled; bad values fail here, not mid-run.
        params = _hyperparameters(self.optimizer, self.optimizer_params, self.total_iterations)[1]
        store("optimizer_params", {k: getattr(params, k) for k in self.optimizer_params})
        store("problem", problems.canonical_spec(self.problem))
        thresholds = self.loss_thresholds
        thresholds = (thresholds,) if isinstance(thresholds, (int, float)) else thresholds
        require(isinstance(thresholds, (list, tuple)), "config key 'loss_thresholds' must be a "
                f"number or a list of numbers, got {thresholds!r}")
        store("loss_thresholds", tuple(convert(float, t, "each entry of 'loss_thresholds'")
                                       for t in thresholds))

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Stable short hash of the experiment identity (used in file names)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:10]


@dataclass
class RunRecord:
    """Per-evaluation metric rows plus a terminal summary.

    One row per evaluation point: iteration (1-based), epoch, mini-batch
    loss at that iteration, full-train loss, test loss, test accuracy (NaN
    for problems without classification semantics) and cumulative training
    wall time in ms (evaluation overhead excluded).
    """

    config: ExperimentConfig
    problem_name: str
    rows: list
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def final_train_loss(self) -> float:
        return self.rows[-1][3] if self.rows else math.nan

    @property
    def final_test_loss(self) -> float:
        return self.rows[-1][4] if self.rows else math.nan

    @property
    def final_test_accuracy(self) -> float:
        return self.rows[-1][5] if self.rows else math.nan

    @property
    def best_test_accuracy(self) -> float:
        accs = [row[5] for row in self.rows if not math.isnan(row[5])]
        return max(accs) if accs else math.nan

    def iterations_to_threshold(self, threshold: float):
        """First evaluation iteration whose full-train loss is <= threshold,
        or None if never reached."""
        for row in self.rows:
            if row[3] <= threshold:
                return int(row[0])
        return None

    def summary(self) -> dict:
        out = {
            "problem": self.problem_name,
            "optimizer": self.config.optimizer,
            "config_hash": self.config.config_hash(),
            "diverged": self.diverged,
            "diverged_at": self.diverged_at,
            "final_iteration": int(self.rows[-1][0]) if self.rows else 0,
            "final_train_loss": self.final_train_loss,
            "final_test_loss": self.final_test_loss,
            "final_test_accuracy": self.final_test_accuracy,
            "best_test_accuracy": self.best_test_accuracy,
        }
        for threshold in self.config.loss_thresholds:
            out[f"iterations_to_train_loss_{threshold:g}"] = self.iterations_to_threshold(
                threshold
            )
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow(
                    [row[0], row[1]] + [repr(float(v)) for v in row[2:]]
                )

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, value in self.summary().items():
                fh.write(f"{key}={value}\n")

    def output_stem(self) -> str:
        return f"{self.problem_name}_{self.config.optimizer}_{self.config.config_hash()}"


def run_experiment(cfg: ExperimentConfig, problem: problems.Problem | None = None) -> RunRecord:
    """Run one optimizer-vs-problem experiment.

    Deterministic given ``cfg``: initialization, batch order and updates
    all derive from ``cfg.seed``.  Metrics are evaluated on the full train
    and test splits every ``eval_every`` iterations and at the final
    iteration.  A non-finite (or > ``DIVERGENCE_LOSS``) batch loss ends the
    run with the divergence flag set; no metric row is emitted after it.

    ``problem`` may be passed to reuse an already-built instance; it must
    match ``cfg.problem``.
    """
    if problem is None:
        problem = problems.problem_from_spec(cfg.problem)
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    w = np.array(problem.initial_point(np.random.default_rng(init_ss)), dtype=np.float64)

    n_train = problem.n_train
    batch_size = min(cfg.batch_size, n_train)
    batches = problems.minibatch_epochs(n_train, batch_size, np.random.default_rng(batch_ss))

    stepper = _build_stepper(cfg.optimizer, cfg.optimizer_params, cfg.total_iterations,
                             problem.dim, lambda: problem.exact_hessian(w))
    loss_and_gradient = getattr(problem, OPTIMIZERS[cfg.optimizer].gradient)

    rows: list = []
    diverged, diverged_at = False, None
    wall_seconds = 0.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for t in range(1, cfg.total_iterations + 1):
            tic = time.perf_counter()
            batch_loss, g = loss_and_gradient(w, next(batches))
            if not math.isfinite(batch_loss) or batch_loss > DIVERGENCE_LOSS:
                diverged, diverged_at = True, t
                break
            try:
                stepper.step(w, g)
            except (NonFiniteError, FloatingPointError, np.linalg.LinAlgError):
                diverged, diverged_at = True, t
                break
            wall_seconds += time.perf_counter() - tic

            if t % cfg.eval_every == 0 or t == cfg.total_iterations:
                train_loss = problem.loss(w)
                if not math.isfinite(train_loss) or train_loss > DIVERGENCE_LOSS:
                    diverged, diverged_at = True, t
                    break
                acc = problem.test_accuracy(w)
                rows.append((
                    t,
                    (t * batch_size) // n_train,
                    float(batch_loss),
                    float(train_loss),
                    float(problem.test_loss(w)),
                    math.nan if acc is None else float(acc),
                    wall_seconds * 1000.0,
                ))

    return RunRecord(cfg, problem.name, rows, diverged, diverged_at)


@dataclass
class SweepResult:
    """All (config, record) pairs of a sweep plus the selected best point."""

    configs: list
    records: list
    best_index: int | None

    @property
    def best(self):
        if self.best_index is None:
            return None
        return self.configs[self.best_index], self.records[self.best_index]


def _selection_key(record: RunRecord):
    # Lexicographic: highest final test accuracy, then lowest final test
    # loss, then lowest final train loss.  NaN accuracy (quadratics) sorts
    # below any real accuracy.
    acc = record.final_test_accuracy
    return (
        -(acc if not math.isnan(acc) else -math.inf),
        record.final_test_loss,
        record.final_train_loss,
    )


def sweep(grid: list) -> SweepResult:
    """Run every config in ``grid`` (all over the same problem) and select
    the best non-diverged point.

    The problem is built once and shared; configs should share a seed so
    every point sees the same initialization.  Diverged runs are excluded
    from selection; if every point diverged, ``best_index`` is None.
    """
    require(len(grid) > 0, "sweep grid must be non-empty")
    first_problem = grid[0].problem
    require(all(cfg.problem == first_problem for cfg in grid),
            "all sweep points must share the same problem spec")
    problem = problems.problem_from_spec(first_problem)

    records = [run_experiment(cfg, problem=problem) for cfg in grid]
    candidates = [i for i, rec in enumerate(records) if not rec.diverged and rec.rows]
    best_index = min(candidates, key=lambda i: _selection_key(records[i]), default=None)
    return SweepResult(configs=list(grid), records=records, best_index=best_index)


def grid(base: ExperimentConfig, axes) -> list:
    """The validated configs of a grid sweep: ``base`` at every combination
    of the hyperparameter values in ``axes``, a mapping of hyperparameter
    name to list of values (the last name varies fastest).  An entry that
    lists one value twice, once coerced (``[1, 1.0]``), is refused."""
    require(isinstance(axes, dict) and axes, "config key 'grid' must be a non-empty mapping "
            "of hyperparameter name to list of values")
    for name, values in axes.items():
        require(isinstance(values, (list, tuple)) and values,
                f"grid entry {name!r} must be a non-empty list of values")
    points = [replace(base, optimizer_params={**base.optimizer_params, **dict(zip(axes, combo))})
              for combo in itertools.product(*axes.values())]
    for name, values in axes.items():
        require(len({cfg.optimizer_params[name] for cfg in points}) == len(values),
                f"grid entry {name!r} lists a value more than once: {values!r}")
    return points


def check_scaling_probe(optimizer_id: str, dims, repeats: int = 20, seed: int = 0,
                        optimizer_params: dict | None = None):
    """The checked arguments of :func:`scaling_probe`: the optimizer's table
    row, ``dims`` as integers and the hyperparameters.  A bad argument
    raises ``ConfigError`` naming it, a dense oracle asked above its cap
    ``ScaleCapError``."""
    dims = [convert(int, d, "each entry of dims") for d in dims]
    require(all(d >= 1 for d in dims), f"dims must be positive, got {dims}")
    require(len(set(dims)) == len(dims), f"dims lists a dimension more than once: {dims}")
    require(repeats >= 1, f"repeats must be >= 1, got {repeats}")
    require(seed >= 0, f"seed must be >= 0, got {seed}")
    params = {} if optimizer_params is None else optimizer_params
    row = _hyperparameters(optimizer_id, params, repeats)[0]
    too_big = [d for d in dims if row.dense and d > baselines.DENSE_FIM_CAP]
    if too_big:
        raise ScaleCapError(
            f"{optimizer_id} is a dense small-scale oracle "
            f"(d <= {baselines.DENSE_FIM_CAP}); refusing dims {too_big}"
        )
    return row, dims, params


def _median(values: list) -> float:
    """The median of a non-empty list, as ``statistics.median`` takes it:
    the middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scaling_probe(optimizer_id: str, dims, repeats: int = 20, seed: int = 0,
                  optimizer_params: dict | None = None) -> list:
    """Wall time of one optimizer update at each dimension.

    Times the update call alone: gradients are synthetic fixed vectors, so
    gradient computation never enters the measurement.  Every dimension's
    stepper and vectors are built first and take 3 untimed warm-up steps.
    The ``repeats`` timed steps per dimension are then split over
    :data:`SCALING_ROUNDS` interleaved rounds (fewer when ``repeats`` is
    smaller); each round times every dimension in turn, so a slow phase of
    the host reaches all dimensions rather than one.  A dimension's result
    is the smallest of its per-round medians.  Dense oracles refuse
    dimensions above their small-scale cap.  Returns a list of
    ``(d, median_step_seconds)`` rows in the order of ``dims``; the
    arguments are checked first by :func:`check_scaling_probe`.
    """
    row, dims, params = check_scaling_probe(optimizer_id, dims, repeats, seed,
                                            optimizer_params)
    rng = np.random.default_rng(seed)
    steps = []
    for d in dims:
        w, g = rng.standard_normal(d), rng.standard_normal(d)
        if row.gradient == "loss_and_per_sample_grads":
            g = rng.standard_normal((8, d))
        stepper = _build_stepper(optimizer_id, params, repeats, d,
                                 lambda: problems.make_quadratic(d, 10.0, seed).exact_hessian(w))
        steps.append(functools.partial(stepper.step, w, g))
    for do_step in steps:
        for _ in range(3):
            do_step()
    rounds = min(SCALING_ROUNDS, repeats)
    round_medians = [[] for _ in dims]
    for r in range(rounds):
        count = repeats // rounds + (r < repeats % rounds)
        for do_step, medians in zip(steps, round_medians):
            times = []
            for _ in range(count):
                tic = time.perf_counter()
                do_step()
                times.append(time.perf_counter() - tic)
            medians.append(_median(times))
    return [(d, min(medians)) for d, medians in zip(dims, round_medians)]
