"""Experiment harness: mini-batch training loops, per-iteration metrics,
hyperparameter sweeps, O(d) step-cost measurement, and every result file.

Every optimizer is one row of :data:`OPTIMIZERS`: a frozen hyperparameter
dataclass (its fields are the accepted keys, its field defaults the only
defaults, and it converts each value to its field's type) and a stepper
whose ``step(w, g)`` updates ``w`` in place from a gradient of ``w``'s
shape.  Runs and the scaling probe build their stepper from that row the
same way, so the training loop makes one ``stepper.step`` call per
iteration, fed by one ``problem.loss_and_grad`` call that returns the
batch loss and the gradient from a single forward pass.

A run is a pure function of its :class:`ExperimentConfig` (wall-time
columns aside): initialization, batch order and updates are all seeded.
A config file's keys are its config's field names; :func:`read_configs`
turns a file's mapping into its one config, or a sweep file's into its
points.  A scaling config lists its optimizers, and the probe is called
once per listed optimizer.
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
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from sofim import baselines, problems
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import convert, convert_fields, require

#: A batch loss above this counts as divergence even while still finite.
DIVERGENCE_LOSS = 1e8

#: Interleaved timing rounds of :func:`scaling_probe`.
SCALING_ROUNDS = 5

#: One evaluation point of a run, and one line of its CSV.
Row = namedtuple("Row", "iteration epoch batch_loss train_loss test_loss test_accuracy wall_ms")
CSV_COLUMNS = Row._fields

#: The summary key of a loss threshold: thresholds equal under it are refused.
THRESHOLD_KEY = "iterations_to_train_loss_{:g}"


class _Optimizer(NamedTuple):
    """One row of :data:`OPTIMIZERS`."""

    config: type  # frozen hyperparameter dataclass
    stepper: type  # built as stepper(dim, config)
    iterations_key: str | None = None  # defaults to the run's iterations


OPTIMIZERS = {
    "sofim": _Optimizer(SofimConfig, SofimOptimizer),
    "sgd_momentum": _Optimizer(baselines.SgdConfig, baselines.SgdMomentumOptimizer,
                               iterations_key="total_steps"),
    "adam": _Optimizer(baselines.AdamConfig, baselines.AdamOptimizer),
}


def _hyperparameters(optimizer_id: str, params: dict, iterations: int):
    """The table row of ``optimizer_id``, its validated hyperparameter
    dataclass (``params`` converted by it, its defaults for the rest) and
    ``params`` converted without defaults: the form a config keeps."""
    require(isinstance(params, dict),
            f"config key 'hyperparameters' must be a mapping, got {params!r}")
    require(optimizer_id in tuple(OPTIMIZERS),
            f"config key 'optimizer' names unknown optimizer {optimizer_id!r}; "
            f"expected one of {tuple(OPTIMIZERS)}")
    row = OPTIMIZERS[optimizer_id]
    unknown = set(params) - {f.name for f in fields(row.config)}
    require(not unknown,
            f"unknown hyperparameter(s) {sorted(unknown, key=str)} for optimizer {optimizer_id!r}")
    defaults = {row.iterations_key: iterations} if row.iterations_key else {}
    config = row.config(**{**defaults, **params})
    return row, config, {k: getattr(config, k) for k in params}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a run: problem spec, optimizer id and
    hyperparameters, batching, iteration budget, seed."""

    problem: dict
    optimizer: str
    hyperparameters: dict = field(default_factory=dict)
    batch_size: int = 512
    iterations: int = 1000
    eval_every: int = 50
    seed: int = 0
    loss_thresholds: tuple = ()

    def __post_init__(self):
        convert_fields(self, "config key")
        require(self.iterations >= 1,
                f"config key 'iterations' must be >= 1, got {self.iterations}")
        require(self.batch_size >= 1,
                f"config key 'batch_size' must be >= 1, got {self.batch_size}")
        require(1 <= self.eval_every <= self.iterations,
                f"config key 'eval_every' must lie in [1, 'iterations'], got {self.eval_every}")
        require(self.seed >= 0, f"config key 'seed' must be >= 0, got {self.seed}")
        store = functools.partial(object.__setattr__, self)
        store("hyperparameters", _hyperparameters(self.optimizer, self.hyperparameters,
                                                  self.iterations)[2])
        store("problem", problems.canonical_spec(self.problem))
        thresholds = self.loss_thresholds
        thresholds = (thresholds,) if isinstance(thresholds, (int, float)) else thresholds
        require(isinstance(thresholds, (list, tuple)), "config key 'loss_thresholds' must be a "
                f"number or a list of numbers, got {thresholds!r}")
        store("loss_thresholds", tuple(convert(float, t, "each entry of 'loss_thresholds'")
                                       for t in thresholds))
        require(len({*map(THRESHOLD_KEY.format, self.loss_thresholds)}) == len(thresholds),
                "config key 'loss_thresholds' lists thresholds that share a summary key: "
                f"{list(self.loss_thresholds)}")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Stable short hash of the experiment identity (used in file names).
        ``iterations`` and ``hyperparameters`` are hashed as
        ``total_iterations`` and ``optimizer_params``, the names that the
        pinned stems and output digests were made with."""
        pinned = {"iterations": "total_iterations", "hyperparameters": "optimizer_params"}
        values = {pinned.get(key, key): value for key, value in self.to_dict().items()}
        canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:10]


@dataclass
class RunRecord:
    """Per-evaluation metric rows plus a terminal summary.

    One :class:`Row` per evaluation point: iteration (1-based), epoch,
    mini-batch loss at that iteration, full-train loss, test loss, test
    accuracy (NaN for problems without classification semantics) and
    cumulative training wall time in ms (evaluation overhead excluded).
    The summary and sweep selection read the run's end from :attr:`final`.
    """

    config: ExperimentConfig
    problem_name: str
    rows: list
    diverged_at: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def final(self) -> Row:
        """The last row, or a row of NaNs at iteration 0 when there is none."""
        return self.rows[-1] if self.rows else Row(0, *[math.nan] * 6)

    @property
    def best_test_accuracy(self) -> float:
        accs = [row.test_accuracy for row in self.rows if not math.isnan(row.test_accuracy)]
        return max(accs) if accs else math.nan

    def iterations_to_threshold(self, threshold: float):
        """First evaluation iteration whose full-train loss is <= threshold,
        or None if never reached."""
        for row in self.rows:
            if row.train_loss <= threshold:
                return int(row.iteration)
        return None

    def summary(self) -> dict:
        final = self.final
        out = {
            "problem": self.problem_name,
            "optimizer": self.config.optimizer,
            "config_hash": self.config.config_hash(),
            "diverged": self.diverged,
            "diverged_at": self.diverged_at,
            "final_iteration": int(final.iteration),
            "final_train_loss": final.train_loss,
            "final_test_loss": final.test_loss,
            "final_test_accuracy": final.test_accuracy,
            "best_test_accuracy": self.best_test_accuracy,
        }
        for threshold in self.config.loss_thresholds:
            out[THRESHOLD_KEY.format(threshold)] = self.iterations_to_threshold(threshold)
        return out

    def write(self, out_dir: Path) -> Path:
        """Write ``<stem>.csv`` and ``<stem>_summary.txt`` into ``out_dir``,
        creating it if needed, and return the CSV's path."""
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = self.output_stem()
        csv_path = out_dir / f"{stem}.csv"
        self.write_csv(csv_path)
        self.write_summary(out_dir / f"{stem}_summary.txt")
        return csv_path

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for iteration, epoch, *values in self.rows:
                writer.writerow([iteration, epoch, *(repr(float(v)) for v in values)])

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

    row, config, _ = _hyperparameters(cfg.optimizer, cfg.hyperparameters, cfg.iterations)
    stepper = row.stepper(problem.dim, config)

    rows: list = []
    diverged_at = None
    wall_seconds = 0.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for t in range(1, cfg.iterations + 1):
            tic = time.perf_counter()
            batch_loss, g = problem.loss_and_grad(w, next(batches))
            if not math.isfinite(batch_loss) or batch_loss > DIVERGENCE_LOSS:
                diverged_at = t
                break
            try:
                stepper.step(w, g)
            except FloatingPointError:  # NonFiniteError is one
                diverged_at = t
                break
            wall_seconds += time.perf_counter() - tic

            if t % cfg.eval_every == 0 or t == cfg.iterations:
                train_loss = problem.loss(w)
                if not math.isfinite(train_loss) or train_loss > DIVERGENCE_LOSS:
                    diverged_at = t
                    break
                rows.append(Row(
                    t,
                    (t * batch_size) // n_train,
                    float(batch_loss),
                    float(train_loss),
                    float(problem.test_loss(w)),
                    float(problem.test_accuracy(w)),
                    wall_seconds * 1000.0,
                ))

    return RunRecord(cfg, problem.name, rows, diverged_at)


@dataclass
class SweepResult:
    """A sweep's records in grid order, each holding its config, and the
    index of the selected best point."""

    records: list
    best_index: int | None

    @property
    def best(self) -> RunRecord | None:
        return None if self.best_index is None else self.records[self.best_index]

    def write(self, out_dir: Path) -> list:
        """Write each point's files and ``sweep_summary.txt``, which names each
        point and the best one by its hyperparameters; return the summary's lines."""
        labels = [record.config.hyperparameters for record in self.records]
        lines = []
        for label, record in zip(labels, self.records):
            record.write(out_dir)
            final = record.final
            lines.append(f"point={label} diverged={record.diverged} "
                         f"final_train_loss={final.train_loss} "
                         f"final_test_loss={final.test_loss} "
                         f"final_test_accuracy={final.test_accuracy}")
        lines.append("best=none (all points diverged)" if self.best is None else
                     f"best={labels[self.best_index]} "
                     f"final_test_accuracy={self.best.final.test_accuracy}")
        (out_dir / "sweep_summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return lines


def _selection_key(record: RunRecord):
    # Lexicographic: highest final test accuracy, then lowest final test
    # loss, then lowest final train loss.  NaN accuracy (quadratics) sorts
    # below any real accuracy.
    final = record.final
    acc = final.test_accuracy
    return -(acc if not math.isnan(acc) else -math.inf), final.test_loss, final.train_loss


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
    return SweepResult(records, best_index)


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
    points = [replace(base, hyperparameters={**base.hyperparameters, **dict(zip(axes, combo))})
              for combo in itertools.product(*axes.values())]
    for name, values in axes.items():
        require(len({cfg.hyperparameters[name] for cfg in points}) == len(values),
                f"grid entry {name!r} lists a value more than once: {values!r}")
    return points


@dataclass(frozen=True)
class ScalingConfig:
    """Everything that determines a scaling probe: the optimizer ids in probe
    order (one id stands for a list of one), dimensions in probe order,
    timed steps per dimension and the synthetic vectors' seed."""

    optimizers: tuple = ("sofim", "sgd_momentum")
    dims: tuple = (1_000, 10_000, 100_000, 1_000_000)
    repeats: int = 20
    seed: int = 0

    def __post_init__(self):
        convert_fields(self, "config key")
        optimizers = self.optimizers
        optimizers = [optimizers] if isinstance(optimizers, str) else optimizers
        require(isinstance(optimizers, (list, tuple)) and optimizers,
                f"config key 'optimizers' must be an optimizer id or a non-empty list of them, "
                f"got {optimizers!r}")
        unknown = [o for o in optimizers if o not in tuple(OPTIMIZERS)]
        require(not unknown, f"config key 'optimizers' names unknown optimizer(s) {unknown!r}; "
                f"expected ids from {tuple(OPTIMIZERS)}")
        require(len(set(optimizers)) == len(optimizers),
                f"config key 'optimizers' lists an optimizer more than once: {optimizers!r}")
        object.__setattr__(self, "optimizers", tuple(optimizers))
        require(isinstance(self.dims, (list, tuple)) and self.dims,
                "config key 'dims' must be a non-empty list of integers")
        dims = [convert(int, d, "each entry of dims") for d in self.dims]
        require(all(d >= 1 for d in dims), f"config key 'dims' must be positive, got {dims}")
        require(len(set(dims)) == len(dims),
                f"config key 'dims' lists a dimension more than once: {dims}")
        object.__setattr__(self, "dims", tuple(dims))
        require(self.repeats >= 1, f"config key 'repeats' must be >= 1, got {self.repeats}")
        require(self.seed >= 0, f"config key 'seed' must be >= 0, got {self.seed}")


def read_configs(subcommand: str, mapping: dict, caller_keys=()) -> list:
    """The checked configs of a ``run``, ``sweep`` or ``scaling`` file.

    A run file's keys are :class:`ExperimentConfig`'s fields and give its
    one config, and a scaling file's are :class:`ScalingConfig`'s and give
    its one config.  A sweep file adds ``grid`` (default ``{eta: [1.0, 0.1,
    0.01, 0.001, 0.0001]}``) to a run file's keys and gives its points.
    ``caller_keys`` are allowed and not read here.  An unknown key, and a
    missing one without a default, is refused by name; each absent key
    takes its field's default.
    """
    cls = ScalingConfig if subcommand == "scaling" else ExperimentConfig
    keys = {*caller_keys, *(f.name for f in fields(cls))}
    if subcommand == "sweep":
        keys.add("grid")
    unknown = set(mapping) - keys
    require(not unknown, f"unknown config key(s) for {subcommand}: {sorted(unknown, key=str)}; "
            f"allowed: {sorted(keys)}")
    for f in fields(cls):
        require(f.name in mapping or f.default is not MISSING or f.default_factory is not MISSING,
                f"config is missing required key {f.name!r}")
    base = cls(**{f.name: mapping[f.name] for f in fields(cls) if f.name in mapping})
    if subcommand != "sweep":
        return [base]
    return grid(base, mapping.get("grid", {"eta": [1.0, 0.1, 0.01, 0.001, 0.0001]}))


def _median(values: list) -> float:
    """The median of a non-empty list, as ``statistics.median`` takes it:
    the middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def scaling_probe(cfg: ScalingConfig, optimizer_id: str) -> list:
    """Wall time of one ``optimizer_id`` update at each of ``cfg.dims``, with
    the default hyperparameters of its dataclass; a caller probes each of
    ``cfg.optimizers`` by one call.

    Times the update call alone: gradients are synthetic fixed vectors, so
    gradient computation never enters the measurement.  Each dimension
    draws one uniform vector in [0, 1) from ``cfg.seed``, its gradient, and
    starts ``w`` at a copy of it.  A step's work does not depend on the
    values, and a uniform draw costs a fraction of a normal one and holds
    no subnormal, infinite or NaN entry that could slow a step.  Every
    dimension's stepper and vectors are built first and take 3 untimed
    warm-up steps.  The ``cfg.repeats`` timed steps per dimension are then
    split over :data:`SCALING_ROUNDS` interleaved rounds (fewer when
    ``repeats`` is smaller); each round times every dimension in turn, so a
    slow phase of the host reaches all dimensions rather than one.  A
    dimension's result is the smallest of its per-round medians.  Returns a
    list of ``(d, median_step_seconds)`` rows in the order of ``cfg.dims``;
    ``cfg`` was checked when it was built.
    """
    row = OPTIMIZERS[optimizer_id]
    rng = np.random.default_rng(cfg.seed)
    steps = []
    for d in cfg.dims:
        g = rng.random(d)
        w = g.copy()
        steps.append(functools.partial(row.stepper(d, row.config()).step, w, g))
    for do_step in steps:
        for _ in range(3):
            do_step()
    rounds = min(SCALING_ROUNDS, cfg.repeats)
    round_medians = [[] for _ in cfg.dims]
    for r in range(rounds):
        count = cfg.repeats // rounds + (r < cfg.repeats % rounds)
        for do_step, medians in zip(steps, round_medians):
            times = []
            for _ in range(count):
                tic = time.perf_counter()
                do_step()
                times.append(time.perf_counter() - tic)
            medians.append(_median(times))
    return [(d, min(medians)) for d, medians in zip(cfg.dims, round_medians)]


def write_scaling_csv(rows: list, out_dir: Path) -> Path:
    """Write ``(optimizer, d, median_step_seconds)`` rows to
    ``out_dir/scaling.csv``, creating ``out_dir`` if needed; return its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "scaling.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("optimizer,d,median_step_seconds\n")
        for optimizer_id, d, seconds in rows:
            fh.write(f"{optimizer_id},{d},{seconds!r}\n")
    return csv_path
