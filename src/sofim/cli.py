"""Command-line front end.

Subcommands
-----------
run        one experiment from a YAML config; writes CSV + summary.
sweep      hyperparameter grid over one problem (the damping study is a
           grid over ``rho``); writes one CSV per point plus a sweep
           summary naming the selected best point.
scaling    per-step wall-time probe across dimensions; writes scaling.csv.
gradcheck  finite-difference gradient verification on default problems.

Config files are YAML mappings whose keys are their configs' fields, read
by ``harness.read_configs``, plus ``output_dir``.  A run file's keys are the
fields of ``harness.ExperimentConfig``: ``problem``, ``optimizer``,
``hyperparameters``, ``batch_size``, ``iterations``, ``eval_every``,
``seed`` and ``loss_thresholds``; ``sweep`` adds ``grid``.  A scaling
file's keys are the fields of ``harness.ScalingConfig``: by default
``optimizers: [sofim, sgd_momentum]``, ``dims`` 1e3 to 1e6 by decades,
``repeats: 20``, ``seed: 0``.  Every listed optimizer is checked before
the first probe.  Any scalar key can be overridden on the command line
with ``--set key=value`` (dotted paths reach nested keys, e.g. ``--set
hyperparameters.rho=0.5``; a path through a value that is not a mapping,
as ``optimizer.eta`` through ``optimizer: sofim``, is refused).
Unknown keys are rejected by name, and so are a quoted number (YAML reads
``1e-3`` as a string: write ``1.0e-3``), an unknown optimizer and a
repeated grid, ``dims`` or ``optimizers`` value.  A refused config writes
nothing: the output directory is created only when the first file is
written, after the problem is built, and an ``output_dir`` that names an
existing file is refused before any training.
A run's ``<confighash>`` hashes its values coerced to their types, and of
``problem`` and ``hyperparameters`` only the keys the config gives, not
their defaults; so ``rho: 1`` and ``rho: 1.0`` name one run.
The effective config is echoed to ``<output_dir>/config_echo.yaml`` in
the file's key order, and a run or sweep replays from it: the same files,
wall times aside.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from sofim import harness, problems
from sofim.exceptions import ConfigError, require

DEFAULT_OUTPUT_DIR_ENV = "SOFIM_OUTPUT_DIR"

class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad usage; we reserve 2 for runtime
    # failures, so surface usage problems as config errors (exit 1) instead.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sofim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, (help_line, _) in _COMMANDS.items():
        # The config path is optional at the argparse level so a missing
        # path surfaces as a named config error (exit 1), not a usage trap.
        cmd = sub.add_parser(name, help=help_line)
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
    """``config`` with each ``KEY=VALUE`` override set, a dotted key reaching
    into nested mappings and making a missing or empty one.  A dotted key
    that descends into a value that is not a mapping is refused, naming the
    override and that key, rather than replacing the value."""
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
        for depth, part in enumerate(parts[:-1], start=1):
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            require(isinstance(nxt, dict), f"override {item!r} descends into config key "
                    f"{'.'.join(parts[:depth])!r}, which holds {nxt!r}, not a mapping")
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


def _echo_config(config: dict, out_dir: Path) -> None:
    """Write the config in its key order, so that a sweep replays its points
    in order and under the same labels."""
    with open(out_dir / "config_echo.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump({**config, "output_dir": str(out_dir)}, fh, sort_keys=False)


def _run(configs: list, out_dir: Path) -> None:
    (cfg,) = configs
    record = harness.run_experiment(cfg)
    csv_path = record.write(out_dir)
    for key, value in record.summary().items():
        print(f"{key}={value}")
    print(f"wrote {csv_path}")


def _sweep(configs: list, out_dir: Path) -> None:
    """Run the grid, write its files and print ``sweep_summary.txt``'s lines."""
    for line in harness.sweep(configs).write(out_dir):
        print(line)


def _scaling(configs: list, out_dir: Path) -> None:
    """One ``scaling_probe`` call per listed optimizer, in the config's
    order, all rows to ``scaling.csv``."""
    (cfg,) = configs
    rows = []
    for optimizer_id in cfg.optimizers:
        for d, seconds in harness.scaling_probe(cfg, optimizer_id):
            rows.append((optimizer_id, d, seconds))
            print(f"{optimizer_id} d={d} median_step_seconds={seconds:.6e}")
    print(f"wrote {harness.write_scaling_csv(rows, out_dir)}")


#: Each config subcommand's help line and the runner of its configs.
_COMMANDS = {
    "run": ("run one experiment", _run),
    "sweep": ("run a hyperparameter grid and select the best point", _sweep),
    "scaling": ("measure per-step update cost across dimensions", _scaling),
}


def _cmd_config(args) -> int:
    """One config subcommand: load the file, apply the overrides, read and
    check its configs, run them and echo the config.  The run creates the
    output directory just before it writes its first file."""
    config = _apply_overrides(_load_config(args.config, args.subcommand), args.overrides)
    configs = harness.read_configs(args.subcommand, config, caller_keys={"output_dir"})
    out_dir = _output_dir(config)
    _, runner = _COMMANDS[args.subcommand]
    runner(configs, out_dir)
    _echo_config(config, out_dir)
    return 0


def _gradcheck_problems(seed: int) -> dict:
    """The problems ``gradcheck`` checks, each with its max-relative-error tolerance."""
    blobs2 = problems.make_blobs(400, 10, 2, 3.0, seed)
    blobs3 = problems.make_blobs(450, 8, 3, 3.0, seed + 1)
    return {
        "quadratic": (problems.make_quadratic(20, 10.0, seed), 1e-8),
        "logistic": (problems.LogisticRegressionProblem(blobs2), 1e-6),
        "softmax": (problems.SoftmaxRegressionProblem(blobs3), 1e-6),
        "mlp_tanh": (problems.MlpProblem(blobs3, 8, "tanh"), 1e-5),
    }


def _cmd_gradcheck(args) -> int:
    require(args.points >= 1, f"--points must be >= 1, got {args.points}")
    require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    failures = []
    for name, (problem, tolerance) in _gradcheck_problems(args.seed).items():
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001, runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
