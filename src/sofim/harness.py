"""Experiment harness: mini-batch training loops, per-iteration metrics,
hyperparameter sweeps, and O(d) step-cost measurement.

A run is a pure function of its :class:`ExperimentConfig` (wall-time
columns aside): initialization, batch order and updates are all seeded.
Non-finite or exploding losses end the run early with a divergence flag
instead of crashing, so grid sweeps survive unstable corners.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sofim import baselines, problems
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import ConfigError, NonFiniteError, ScaleCapError

#: A batch loss above this counts as divergence even while still finite.
DIVERGENCE_LOSS = 1e8

#: Interleaved timing rounds of :func:`scaling_probe`.
SCALING_ROUNDS = 5

OPTIMIZER_IDS = ("sofim", "sgd_momentum", "adam", "ngd_oracle", "newton_oracle")

CSV_COLUMNS = (
    "iteration",
    "epoch",
    "batch_loss",
    "train_loss",
    "test_loss",
    "test_accuracy",
    "wall_ms",
)

_OPTIMIZER_PARAM_KEYS = {
    "sofim": {"eta", "rho", "beta"},
    "sgd_momentum": {"eta", "momentum", "weight_decay", "schedule", "total_steps"},
    "adam": {"eta", "beta1", "beta2", "epsilon"},
    "ngd_oracle": {"eta", "damping"},
    "newton_oracle": {"eta"},
}


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
        if self.optimizer not in OPTIMIZER_IDS:
            raise ConfigError(
                f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZER_IDS}"
            )
        if self.total_iterations < 1:
            raise ConfigError(f"total_iterations must be >= 1, got {self.total_iterations}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (1 <= self.eval_every <= self.total_iterations):
            raise ConfigError(
                f"eval_every must lie in [1, total_iterations], got {self.eval_every}"
            )
        unknown = set(self.optimizer_params) - _OPTIMIZER_PARAM_KEYS[self.optimizer]
        if unknown:
            raise ConfigError(
                f"unknown hyperparameter(s) {sorted(unknown)} for optimizer {self.optimizer!r}"
            )
        object.__setattr__(self, "loss_thresholds", tuple(self.loss_thresholds))
        # Validate hyperparameters eagerly so bad values (rho <= 0, beta >= 1,
        # ...) are rejected at config time, not mid-run.
        _optimizer_config(self)

    def to_dict(self) -> dict:
        return {
            "problem": dict(self.problem),
            "optimizer": self.optimizer,
            "optimizer_params": dict(self.optimizer_params),
            "batch_size": self.batch_size,
            "total_iterations": self.total_iterations,
            "eval_every": self.eval_every,
            "seed": self.seed,
            "loss_thresholds": list(self.loss_thresholds),
        }

    def config_hash(self) -> str:
        """Stable short hash of the experiment identity (used in file names)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:10]


def _optimizer_config(cfg: ExperimentConfig):
    """Build the validated config object for cfg's optimizer."""
    p = cfg.optimizer_params
    if cfg.optimizer == "sofim":
        return SofimConfig(
            eta=float(p.get("eta", 0.1)),
            rho=float(p.get("rho", 0.5)),
            beta=float(p.get("beta", 0.9)),
        )
    if cfg.optimizer == "sgd_momentum":
        return baselines.SgdConfig(
            eta=float(p.get("eta", 0.1)),
            momentum=float(p.get("momentum", 0.9)),
            weight_decay=float(p.get("weight_decay", 0.0)),
            schedule=p.get("schedule", "constant"),
            total_steps=int(p["total_steps"]) if "total_steps" in p
            else (cfg.total_iterations if p.get("schedule") == "cosine" else None),
        )
    if cfg.optimizer == "adam":
        return baselines.AdamConfig(
            eta=float(p.get("eta", 0.001)),
            beta1=float(p.get("beta1", 0.9)),
            beta2=float(p.get("beta2", 0.999)),
            epsilon=float(p.get("epsilon", 1e-8)),
        )
    if cfg.optimizer == "ngd_oracle":
        damping = float(p.get("damping", baselines.DEFAULT_NGD_DAMPING))
        if damping <= 0:
            raise ConfigError(f"damping must be > 0, got {damping}")
        return {"eta": float(p.get("eta", 0.1)), "damping": damping}
    # newton_oracle
    return {"eta": float(p.get("eta", 1.0))}


def _make_stepper(optimizer_id: str, params: dict, dim: int, total_iterations: int):
    """Stateful in-place stepper for the gradient-only optimizers."""
    cfg = ExperimentConfig(
        problem={"kind": "quadratic"}, optimizer=optimizer_id,
        optimizer_params=params, total_iterations=total_iterations,
        eval_every=1,
    )
    opt_cfg = _optimizer_config(cfg)
    if optimizer_id == "sofim":
        return SofimOptimizer(dim, opt_cfg)
    if optimizer_id == "sgd_momentum":
        return baselines.SgdMomentumOptimizer(dim, opt_cfg)
    if optimizer_id == "adam":
        return baselines.AdamOptimizer(dim, opt_cfg)
    raise ConfigError(f"{optimizer_id!r} is not a gradient-only optimizer")


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

    def column(self, name: str) -> np.ndarray:
        i = CSV_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows])

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
    opt_cfg = _optimizer_config(cfg)

    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    w = np.array(problem.initial_point(np.random.default_rng(init_ss)), dtype=np.float64)

    n_train = problem.n_train
    batch_size = min(cfg.batch_size, n_train)
    full_batch = n_train == 1
    batches = None if full_batch else problems.minibatch_epochs(
        n_train, batch_size, np.random.default_rng(batch_ss)
    )

    stepper = None
    if cfg.optimizer in ("sofim", "sgd_momentum", "adam"):
        stepper = _make_stepper(
            cfg.optimizer, cfg.optimizer_params, problem.dim, cfg.total_iterations
        )
    elif cfg.optimizer == "newton_oracle":
        # Fail early if the problem cannot provide a Hessian.
        problem.exact_hessian(w)

    rows: list = []
    diverged = False
    diverged_at = None
    wall_seconds = 0.0

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for t in range(1, cfg.total_iterations + 1):
            tic = time.perf_counter()
            batch = None if full_batch else next(batches)
            batch_loss = problem.loss(w, batch)
            if not math.isfinite(batch_loss) or batch_loss > DIVERGENCE_LOSS:
                diverged, diverged_at = True, t
                break
            try:
                if stepper is not None:
                    g = problem.grad(w, batch)
                    stepper.step(w, g)
                elif cfg.optimizer == "ngd_oracle":
                    grads = problem.per_sample_grads(w, batch)
                    w = baselines.ngd_step(w, grads, opt_cfg["eta"], opt_cfg["damping"])
                else:
                    w = baselines.newton_step_quadratic(w, problem, opt_cfg["eta"])
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

    return RunRecord(
        config=cfg,
        problem_name=problem.name,
        rows=rows,
        diverged=diverged,
        diverged_at=diverged_at,
    )


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
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    first_problem = grid[0].problem
    for cfg in grid[1:]:
        if cfg.problem != first_problem:
            raise ConfigError("all sweep points must share the same problem spec")
    problem = problems.problem_from_spec(first_problem)

    records = [run_experiment(cfg, problem=problem) for cfg in grid]
    candidates = [i for i, rec in enumerate(records) if not rec.diverged and rec.rows]
    best_index = min(candidates, key=lambda i: _selection_key(records[i]), default=None)
    return SweepResult(configs=list(grid), records=records, best_index=best_index)


def rho_sweep(base: ExperimentConfig, rhos=(1.0, 0.5, 0.1)) -> SweepResult:
    """Sweep the curvature regularizer of a SOFIM config over ``rhos``."""
    if base.optimizer != "sofim":
        raise ConfigError(f"rho sweep requires the sofim optimizer, got {base.optimizer!r}")
    grid = [
        replace(base, optimizer_params={**base.optimizer_params, "rho": float(r)})
        for r in rhos
    ]
    return sweep(grid)


def _probe_step(optimizer_id: str, params: dict, d: int, repeats: int, seed: int, rng):
    """A zero-argument callable taking one update of ``optimizer_id`` at ``d``."""
    w = rng.standard_normal(d)
    g = rng.standard_normal(d)
    if optimizer_id in ("sofim", "sgd_momentum", "adam"):
        stepper = _make_stepper(optimizer_id, params, d, total_iterations=repeats)
        return lambda: stepper.step(w, g)
    if optimizer_id == "ngd_oracle":
        grads = rng.standard_normal((8, d))
        eta = float(params.get("eta", 0.1))
        damping = float(params.get("damping", baselines.DEFAULT_NGD_DAMPING))
        return lambda: baselines.ngd_step(w, grads, eta, damping)
    if optimizer_id == "newton_oracle":
        problem = problems.make_quadratic(d, 10.0, seed)
        eta = float(params.get("eta", 1.0))
        return lambda: baselines.newton_step_quadratic(w, problem, eta)
    raise ConfigError(f"unknown optimizer {optimizer_id!r}")


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
    ``(d, median_step_seconds)`` rows in the order of ``dims``.
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ConfigError(f"dims must be positive, got {dims}")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    params = dict(optimizer_params or {})
    if optimizer_id in ("ngd_oracle", "newton_oracle"):
        too_big = [d for d in dims if d > baselines.DENSE_FIM_CAP]
        if too_big:
            raise ScaleCapError(
                f"{optimizer_id} is a dense small-scale oracle "
                f"(d <= {baselines.DENSE_FIM_CAP}); refusing dims {too_big}"
            )

    rng = np.random.default_rng(seed)
    steps = [_probe_step(optimizer_id, params, d, repeats, seed, rng) for d in dims]
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
            medians.append(statistics.median(times))
    return [(d, min(medians)) for d, medians in zip(dims, round_medians)]
