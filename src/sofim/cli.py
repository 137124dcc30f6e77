"""Command-line front end.

Subcommands
-----------
run        one experiment from a YAML config; writes CSV + summary.
sweep      hyperparameter grid over one problem; writes one CSV per point
           plus a sweep summary naming the selected best point.
rho-sweep  curvature-regularizer sweep for the sofim optimizer.
scaling    per-step wall-time probe across dimensions; writes scaling.csv.
gradcheck  finite-difference gradient verification on default problems.

Config files are YAML mappings with top-level keys ``problem``,
``optimizer``, ``hyperparameters``, ``iterations``, ``batch_size``,
``eval_every``, ``seed``, ``output_dir``, ``loss_thresholds`` (plus
``grid``, ``rhos``, ``dims``, ``repeats``, ``optimizers`` for the sweep
and scaling subcommands).  Any scalar key can be overridden on the
command line with ``--set key=value`` (dotted paths reach nested keys,
e.g. ``--set hyperparameters.rho=0.5``).  Unknown keys are rejected by
name.  The effective config is echoed to ``<output_dir>/config_echo.yaml``
so every run can be reproduced from its own output directory.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from sofim import harness, problems
from sofim.exceptions import ConfigError, ScaleCapError, convert

DEFAULT_OUTPUT_DIR_ENV = "SOFIM_OUTPUT_DIR"
DEFAULT_ETA_GRID = (1.0, 0.1, 0.01, 0.001, 0.0001)
DEFAULT_RHOS = (1.0, 0.5, 0.1)
DEFAULT_SCALING_DIMS = (1_000, 10_000, 100_000, 1_000_000)

#: Problems checked by ``gradcheck`` and their max-relative-error tolerances.
GRADCHECK_TOLERANCES = {
    "quadratic": 1e-8,
    "logistic": 1e-6,
    "softmax": 1e-6,
    "mlp_tanh": 1e-5,
}

_RUN_KEYS = {
    "problem", "optimizer", "hyperparameters", "iterations", "batch_size",
    "eval_every", "seed", "output_dir", "loss_thresholds",
}
#: Integer keys of a run config, each with the ExperimentConfig field it sets.
_RUN_INT_KEYS = {"batch_size": "batch_size", "iterations": "total_iterations",
                 "eval_every": "eval_every", "seed": "seed"}
_FILE_KEYS = {
    "run": _RUN_KEYS,
    "sweep": _RUN_KEYS | {"grid"},
    "rho-sweep": _RUN_KEYS | {"rhos"},
    "scaling": {"optimizers", "dims", "repeats", "seed", "output_dir", "hyperparameters"},
}


class CliError(Exception):
    """A config/usage problem; reported on stderr and mapped to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad usage; we reserve 2 for runtime
    # failures, so surface usage problems as CliError instead.
    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sofim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add_config_command(name, help_text):
        # The config path is optional at the argparse level so a missing
        # path surfaces as a named config error (exit 1), not a usage trap.
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="path to YAML experiment config")
        cmd.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted paths for nested keys); repeatable",
        )

    add_config_command("run", "run one experiment")
    add_config_command("sweep", "run a hyperparameter grid and select the best point")
    add_config_command("rho-sweep", "sweep the sofim curvature regularizer")
    add_config_command("scaling", "measure per-step update cost across dimensions")

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference gradient verification on default problems"
    )
    gradcheck.add_argument("--points", type=int, default=20,
                           help="random points per problem (default 20)")
    gradcheck.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    return parser


def _load_config(path_str: str | None, subcommand: str) -> dict:
    if path_str is None:
        if subcommand == "scaling":
            return {}
        raise CliError(f"the {subcommand} subcommand requires a config file path")
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise CliError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must be a mapping at top level")
    return data


def _apply_overrides(config: dict, overrides: list) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config.items()}
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise CliError(f"override {item!r} is not of the form KEY=VALUE")
        try:
            value = yaml.safe_load(raw) if raw != "" else ""
        except yaml.YAMLError as exc:
            raise CliError(f"override {item!r} has an unparsable value: {exc}") from exc
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


def _check_keys(config: dict, subcommand: str) -> None:
    allowed = _FILE_KEYS[subcommand]
    unknown = set(config) - allowed
    if unknown:
        raise CliError(
            f"unknown config key(s) for {subcommand}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _resolve_output_dir(config: dict) -> Path:
    raw = config.get("output_dir") or os.environ.get(DEFAULT_OUTPUT_DIR_ENV) or "runs"
    if not isinstance(raw, (str, os.PathLike)):
        raise CliError(f"output_dir must be a path string, got {raw!r}")
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _int_field(config: dict, key: str) -> int:
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _params(config: dict) -> dict:
    params = config.get("hyperparameters", {})
    if not isinstance(params, dict):
        raise CliError("config key 'hyperparameters' must be a mapping")
    return params


def _floats(values, key: str) -> list:
    return [convert(float, v, f"each entry of config key {key!r}") for v in values]


def _experiment_config(config: dict) -> harness.ExperimentConfig:
    for required in ("problem", "optimizer"):
        if required not in config:
            raise CliError(f"config is missing required key {required!r}")
    if not isinstance(config["problem"], dict):
        raise CliError("config key 'problem' must be a mapping")
    thresholds = config.get("loss_thresholds", ())
    if isinstance(thresholds, (int, float)):
        thresholds = (thresholds,)
    if not isinstance(thresholds, (list, tuple)):
        raise CliError(f"config key 'loss_thresholds' must be a number or a list of numbers, "
                       f"got {thresholds!r}")
    return harness.ExperimentConfig(
        problem=config["problem"],
        optimizer=config["optimizer"],
        optimizer_params=_params(config),
        loss_thresholds=tuple(_floats(thresholds, "loss_thresholds")),
        # Keys the config leaves out keep ExperimentConfig's defaults.
        **{name: _int_field(config, key) for key, name in _RUN_INT_KEYS.items() if key in config},
    )


def _echo_config(config: dict, out_dir: Path) -> Path:
    effective = dict(config)
    effective["output_dir"] = str(out_dir)
    path = out_dir / "config_echo.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(effective, fh, sort_keys=True)
    return path


def _write_record(record: harness.RunRecord, out_dir: Path) -> Path:
    stem = record.output_stem()
    csv_path = out_dir / f"{stem}.csv"
    record.write_csv(csv_path)
    record.write_summary(out_dir / f"{stem}_summary.txt")
    return csv_path


def _print_summary(record: harness.RunRecord) -> None:
    for key, value in record.summary().items():
        print(f"{key}={value}")


def _cmd_run(args) -> int:
    config = _apply_overrides(_load_config(args.config, "run"), args.overrides)
    _check_keys(config, "run")
    out_dir = _resolve_output_dir(config)
    cfg = _experiment_config(config)
    record = harness.run_experiment(cfg)
    csv_path = _write_record(record, out_dir)
    _echo_config(config, out_dir)
    _print_summary(record)
    print(f"wrote {csv_path}")
    return 0


def _grid_points(config: dict) -> list:
    grid = config.get("grid", {"eta": list(DEFAULT_ETA_GRID)})
    if not isinstance(grid, dict) or not grid:
        raise CliError("config key 'grid' must be a non-empty mapping of "
                       "hyperparameter name to list of values")
    names = list(grid)
    value_lists = []
    for name in names:
        values = grid[name]
        if not isinstance(values, (list, tuple)) or not values:
            raise CliError(f"grid entry {name!r} must be a non-empty list of values")
        value_lists.append(list(values))
    return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]


def _report_sweep(result: harness.SweepResult, out_dir: Path, summary_name: str,
                  point_label) -> list:
    lines = []
    csv_paths = []
    for cfg, record in zip(result.configs, result.records):
        csv_paths.append(_write_record(record, out_dir))
        lines.append(
            f"point={point_label(cfg)} diverged={record.diverged} "
            f"final_train_loss={record.final_train_loss} "
            f"final_test_loss={record.final_test_loss} "
            f"final_test_accuracy={record.final_test_accuracy}"
        )
    if result.best_index is None:
        lines.append("best=none (all points diverged)")
    else:
        best_cfg, best_record = result.best
        lines.append(f"best={point_label(best_cfg)} "
                     f"final_test_accuracy={best_record.final_test_accuracy}")
    summary_path = out_dir / summary_name
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)
    return csv_paths


def _cmd_sweep(args) -> int:
    config = _apply_overrides(_load_config(args.config, "sweep"), args.overrides)
    _check_keys(config, "sweep")
    out_dir = _resolve_output_dir(config)
    base = _experiment_config({k: v for k, v in config.items() if k != "grid"})
    points = _grid_points(config)
    grid = [
        replace(base, optimizer_params={**base.optimizer_params, **point})
        for point in points
    ]
    result = harness.sweep(grid)
    _report_sweep(result, out_dir, "sweep_summary.txt",
                  lambda cfg: dict(cfg.optimizer_params))
    _echo_config(config, out_dir)
    return 0


def _cmd_rho_sweep(args) -> int:
    config = _apply_overrides(_load_config(args.config, "rho-sweep"), args.overrides)
    _check_keys(config, "rho-sweep")
    out_dir = _resolve_output_dir(config)
    rhos = config.get("rhos", list(DEFAULT_RHOS))
    if not isinstance(rhos, (list, tuple)) or not rhos:
        raise CliError("config key 'rhos' must be a non-empty list")
    base = _experiment_config({k: v for k, v in config.items() if k != "rhos"})
    result = harness.rho_sweep(base, _floats(rhos, "rhos"))
    _report_sweep(result, out_dir, "rho_sweep_summary.txt",
                  lambda cfg: f"rho={cfg.optimizer_params['rho']:g}")
    _echo_config(config, out_dir)
    return 0


def _cmd_scaling(args) -> int:
    config = _apply_overrides(_load_config(args.config, "scaling"), args.overrides)
    _check_keys(config, "scaling")
    out_dir = _resolve_output_dir(config)
    optimizers = config.get("optimizers", ["sofim", "sgd_momentum"])
    if isinstance(optimizers, str):
        optimizers = [optimizers]
    if not isinstance(optimizers, (list, tuple)):
        raise CliError(f"config key 'optimizers' must be an optimizer id or a list of them, "
                       f"got {optimizers!r}")
    dims = config.get("dims", list(DEFAULT_SCALING_DIMS))
    if not isinstance(dims, (list, tuple)) or not dims:
        raise CliError("config key 'dims' must be a non-empty list of integers")
    probe_args = {key: _int_field(config, key) for key in ("repeats", "seed") if key in config}
    params = _params(config)

    rows = []
    for optimizer_id in optimizers:
        for d, seconds in harness.scaling_probe(
            optimizer_id, dims, optimizer_params=params, **probe_args
        ):
            rows.append((optimizer_id, d, seconds))
            print(f"{optimizer_id} d={d} median_step_seconds={seconds:.6e}")

    csv_path = out_dir / "scaling.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("optimizer,d,median_step_seconds\n")
        for optimizer_id, d, seconds in rows:
            fh.write(f"{optimizer_id},{d},{seconds!r}\n")
    _echo_config(config, out_dir)
    print(f"wrote {csv_path}")
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
        "mlp_tanh": problems.MlpProblem(blobs3, mlp_spec, init_seed=seed),
    }


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    for name, problem in _gradcheck_problems(args.seed).items():
        tolerance = GRADCHECK_TOLERANCES[name]
        error = problems.gradient_check(problem, rng, n_points=args.points)
        status = "ok" if error <= tolerance else "FAIL"
        print(f"{name}: max relative error {error:.3e} (tolerance {tolerance:g}) {status}")
        if error > tolerance:
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
    except CliError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.subcommand is None:
        print("config error: a subcommand is required "
              "(run, sweep, rho-sweep, scaling, gradcheck)", file=sys.stderr)
        return 1
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "rho-sweep": _cmd_rho_sweep,
        "scaling": _cmd_scaling,
        "gradcheck": _cmd_gradcheck,
    }
    try:
        return handlers[args.subcommand](args)
    except (CliError, ConfigError, ScaleCapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001, runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
