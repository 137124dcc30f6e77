"""Command-line front end.

Subcommands
-----------
run        one experiment from a YAML config; writes CSV + summary.
sweep      hyperparameter grid over one problem (the damping study is a
           grid over ``rho``); writes one CSV per point plus a sweep
           summary naming the selected best point.
scaling    per-step wall-time probe across dimensions; writes scaling.csv.
gradcheck  finite-difference gradient verification on default problems.

Config files are YAML mappings.  A run file's keys are the fields of
``harness.ExperimentConfig``, with ``iterations`` for ``total_iterations``
and ``hyperparameters`` for ``optimizer_params``: ``problem``,
``optimizer``, ``hyperparameters``, ``batch_size``, ``iterations``,
``eval_every``, ``seed``, ``loss_thresholds``, plus ``output_dir``.
``sweep`` adds ``grid``; ``scaling`` takes ``optimizers``, ``dims``,
``repeats``, ``seed``, ``hyperparameters`` and ``output_dir``.  Any scalar
key can be overridden on the command line with ``--set key=value``
(dotted paths reach nested keys, e.g. ``--set hyperparameters.rho=0.5``).
Unknown keys are rejected by name, and so are a quoted number (YAML reads
``1e-3`` as a string: write ``1.0e-3``) and a repeated grid or ``dims``
value.  A refused config writes nothing: the output directory is created
only when the first file is written, after the problem is built, and an
``output_dir`` that names an existing file is refused before any training.
A run's ``<confighash>`` hashes its values coerced to their types, and of
``problem`` and ``hyperparameters`` only the keys the config gives, not
their defaults; so ``rho: 1`` and ``rho: 1.0`` name one run.
The effective config is echoed to ``<output_dir>/config_echo.yaml`` so
every run can be reproduced from its own output directory.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import MISSING, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from sofim import harness, problems
from sofim.exceptions import ConfigError, ScaleCapError, convert, require

DEFAULT_OUTPUT_DIR_ENV = "SOFIM_OUTPUT_DIR"
DEFAULT_ETA_GRID = (1.0, 0.1, 0.01, 0.001, 0.0001)
DEFAULT_SCALING_DIMS = (1_000, 10_000, 100_000, 1_000_000)

#: Problems checked by ``gradcheck`` and their max-relative-error tolerances.
GRADCHECK_TOLERANCES = {
    "quadratic": 1e-8,
    "logistic": 1e-6,
    "softmax": 1e-6,
    "mlp_tanh": 1e-5,
}

#: Each run-file key but ``output_dir``, with the ExperimentConfig field it sets.
_RUN_FIELDS = {harness.KEY_OF_FIELD.get(f.name, f.name): f
               for f in fields(harness.ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad usage; we reserve 2 for runtime
    # failures, so surface usage problems as config errors (exit 1) instead.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sofim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, command in _COMMANDS.items():
        # The config path is optional at the argparse level so a missing
        # path surfaces as a named config error (exit 1), not a usage trap.
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("config", nargs="?", default=None,
                         help="path to YAML experiment config")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted paths for nested keys); repeatable",
        )

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference gradient verification on default problems"
    )
    gradcheck.add_argument("--points", type=int, default=20,
                           help="random points per problem (default 20)")
    gradcheck.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    return parser


def _load_config(path_str: str | None, subcommand: str) -> dict:
    if path_str is None:
        require(subcommand == "scaling",
                f"the {subcommand} subcommand requires a config file path")
        return {}
    path = Path(path_str)
    require(path.is_file(), f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    data = {} if data is None else data
    require(isinstance(data, dict), f"config file {path} must be a mapping at top level")
    return data


def _apply_overrides(config: dict, overrides: list) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config.items()}
    for item in overrides:
        key, sep, raw = item.partition("=")
        require(sep and key, f"override {item!r} is not of the form KEY=VALUE")
        try:
            value = yaml.safe_load(raw) if raw != "" else ""
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} has an unparsable value: {exc}") from exc
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


def _output_dir(config: dict) -> Path:
    """The output directory named by ``output_dir``, else by the
    environment, else ``runs``.  It is not created here, but it is refused
    if it or a parent of it exists and is not a directory, so that no run
    trains and then fails to write."""
    raw = config.get("output_dir")
    require(raw is None or isinstance(raw, str), f"output_dir must be a path string, got {raw!r}")
    out_dir = Path(raw or os.environ.get(DEFAULT_OUTPUT_DIR_ENV) or "runs")
    existing = next((p for p in (out_dir, *out_dir.parents) if p.exists()), None)
    require(existing is None or existing.is_dir(),
            f"output_dir {str(out_dir)!r} cannot be made a directory: {str(existing)!r} "
            f"exists and is not a directory")
    return out_dir


def _experiment_config(config: dict) -> harness.ExperimentConfig:
    """The validated ExperimentConfig of a run file; keys the file leaves
    out keep ExperimentConfig's defaults, and other keys are ignored.  The
    config coerces its values itself."""
    values = {}
    for key, f in _RUN_FIELDS.items():
        if key in config:
            values[f.name] = config[key]
        else:
            require(f.default is not MISSING or f.default_factory is not MISSING,
                    f"config is missing required key {key!r}")
    return harness.ExperimentConfig(**values)


def _echo_config(config: dict, out_dir: Path) -> Path:
    effective = dict(config)
    effective["output_dir"] = str(out_dir)
    path = out_dir / "config_echo.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(effective, fh, sort_keys=True)
    return path


def _write_record(record: harness.RunRecord, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = record.output_stem()
    csv_path = out_dir / f"{stem}.csv"
    record.write_csv(csv_path)
    record.write_summary(out_dir / f"{stem}_summary.txt")
    return csv_path


def _run(cfg: harness.ExperimentConfig, out_dir: Path) -> None:
    record = harness.run_experiment(cfg)
    csv_path = _write_record(record, out_dir)
    for key, value in record.summary().items():
        print(f"{key}={value}")
    print(f"wrote {csv_path}")


def _sweep_grid(config: dict) -> list:
    return harness.grid(_experiment_config(config),
                        config.get("grid", {"eta": list(DEFAULT_ETA_GRID)}))


def _sweep(grid: list, out_dir: Path) -> None:
    """Run the grid, write each point's CSV and summary, and name every
    point by its hyperparameters in ``sweep_summary.txt``."""
    result = harness.sweep(grid)
    lines = []
    for cfg, record in zip(result.configs, result.records):
        _write_record(record, out_dir)
        lines.append(
            f"point={cfg.optimizer_params} diverged={record.diverged} "
            f"final_train_loss={record.final_train_loss} "
            f"final_test_loss={record.final_test_loss} "
            f"final_test_accuracy={record.final_test_accuracy}"
        )
    if result.best_index is None:
        lines.append("best=none (all points diverged)")
    else:
        best_cfg, best_record = result.best
        lines.append(f"best={best_cfg.optimizer_params} "
                     f"final_test_accuracy={best_record.final_test_accuracy}")
    (out_dir / "sweep_summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)


def _scaling_job(config: dict) -> tuple:
    """The optimizer ids and probe arguments of a scaling file, every
    optimizer's arguments checked before any probe runs."""
    optimizers = config.get("optimizers", ["sofim", "sgd_momentum"])
    if isinstance(optimizers, str):
        optimizers = [optimizers]
    require(isinstance(optimizers, (list, tuple)) and optimizers,
            f"config key 'optimizers' must be an optimizer id or a non-empty list of them, "
            f"got {optimizers!r}")
    dims = config.get("dims", list(DEFAULT_SCALING_DIMS))
    require(isinstance(dims, (list, tuple)) and dims,
            "config key 'dims' must be a non-empty list of integers")
    probe_args = {key: convert(int, config[key], f"config key {key!r}")
                  for key in ("repeats", "seed") if key in config}
    probe_args.update(dims=dims, optimizer_params=config.get("hyperparameters", {}))
    for optimizer_id in optimizers:
        harness.check_scaling_probe(optimizer_id, **probe_args)
    return optimizers, probe_args


def _scaling(job: tuple, out_dir: Path) -> None:
    optimizers, probe_args = job
    rows = []
    for optimizer_id in optimizers:
        for d, seconds in harness.scaling_probe(optimizer_id, **probe_args):
            rows.append((optimizer_id, d, seconds))
            print(f"{optimizer_id} d={d} median_step_seconds={seconds:.6e}")

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "scaling.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("optimizer,d,median_step_seconds\n")
        for optimizer_id, d, seconds in rows:
            fh.write(f"{optimizer_id},{d},{seconds!r}\n")
    print(f"wrote {csv_path}")


class _Command(NamedTuple):
    """A config subcommand: its help line, the keys its file takes, how it
    turns the config into a validated job, and how it runs that job into
    the output directory."""

    help: str
    keys: set
    build: Callable[[dict], object]
    run: Callable[[object, Path], None]


_RUN_FILE_KEYS = {*_RUN_FIELDS, "output_dir"}
_COMMANDS = {
    "run": _Command("run one experiment", _RUN_FILE_KEYS, _experiment_config, _run),
    "sweep": _Command("run a hyperparameter grid and select the best point",
                      _RUN_FILE_KEYS | {"grid"}, _sweep_grid, _sweep),
    "scaling": _Command(
        "measure per-step update cost across dimensions",
        {"optimizers", "dims", "repeats", "seed", "output_dir", "hyperparameters"},
        _scaling_job, _scaling,
    ),
}


def _cmd_config(args) -> int:
    """One config subcommand: load the file, apply the overrides, check the
    keys, build and validate the job, run it and echo the config.  The run
    creates the output directory just before it writes its first file."""
    command = _COMMANDS[args.subcommand]
    config = _apply_overrides(_load_config(args.config, args.subcommand), args.overrides)
    unknown = set(config) - command.keys
    require(not unknown, f"unknown config key(s) for {args.subcommand}: {sorted(unknown)}; "
            f"allowed: {sorted(command.keys)}")
    out_dir = _output_dir(config)
    command.run(command.build(config), out_dir)
    _echo_config(config, out_dir)
    return 0


def _gradcheck_problems(seed: int) -> dict:
    blobs2 = problems.make_blobs(400, 10, 2, 3.0, seed)
    blobs3 = problems.make_blobs(450, 8, 3, 3.0, seed + 1)
    mlp_spec = problems.MlpSpec(
        widths=(blobs3.n_features, 8, blobs3.num_classes), activation="tanh"
    )
    return {
        "quadratic": problems.make_quadratic(20, 10.0, seed),
        "logistic": problems.LogisticRegressionProblem(blobs2),
        "softmax": problems.SoftmaxRegressionProblem(blobs3),
        "mlp_tanh": problems.MlpProblem(blobs3, mlp_spec),
    }


def _cmd_gradcheck(args) -> int:
    require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = []
    for name, problem in _gradcheck_problems(args.seed).items():
        tolerance = GRADCHECK_TOLERANCES[name]
        error = problems.gradient_check(problem, rng, n_points=args.points)
        status = "ok" if error <= tolerance else "FAIL"  # a NaN error fails
        print(f"{name}: max relative error {error:.3e} (tolerance {tolerance:g}) {status}")
        if status == "FAIL":
            failures.append(name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    """Entry point; returns an exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.subcommand is None:
        print(f"config error: a subcommand is required ({', '.join([*_COMMANDS, 'gradcheck'])})",
              file=sys.stderr)
        return 1
    handler = _cmd_gradcheck if args.subcommand == "gradcheck" else _cmd_config
    try:
        return handler(args)
    except (ConfigError, ScaleCapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001, runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
