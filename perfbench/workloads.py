"""The benchmark's workloads and the checks on what their commands write.

A workload is one or more ``sofim`` CLI commands over the shipped configs.
The workload seed replaces the config seeds, so one seed gives one set of
inputs.  Every command writes to its own temporary output directory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

#: The seed the shipped configs use; outputs for it are pinned in digests.json.
DEFAULT_SEED = 0

RUN_COLUMNS = ["iteration", "epoch", "batch_loss", "train_loss", "test_loss",
               "test_accuracy", "wall_ms"]
SCALING_COLUMNS = ["optimizer", "d", "median_step_seconds"]
#: Columns holding wall-clock times, dropped before hashing.
TIME_COLUMNS = {"wall_ms", "median_step_seconds"}


@dataclass(frozen=True)
class Command:
    subcommand: str
    config: str
    overrides: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    #: config keys set to the workload seed
    seeded: tuple
    #: overrides that shrink every command for the smoke mode
    smoke: tuple

    def overrides(self, command: Command, seed: int, smoke: bool) -> list:
        out = list(command.overrides) + [f"{key}={seed}" for key in self.seeded]
        return out + list(self.smoke) if smoke else out

    def argvs(self, seed: int, out_dirs: list, smoke: bool) -> list:
        """One sofim argv per command, writing into the matching directory."""
        return [
            [c.subcommand, str(CONFIGS / c.config)]
            + [arg for item in self.overrides(c, seed, smoke) + [f"output_dir={out}"]
               for arg in ("--set", item)]
            for c, out in zip(self.commands, out_dirs)
        ]

    def config(self, command: Command, seed: int, smoke: bool) -> dict:
        """The effective config of ``command``, worked out independently of
        the CLI so the checks do not trust the program's own echo."""
        config = yaml.safe_load((CONFIGS / command.config).read_text(encoding="utf-8"))
        for item in self.overrides(command, seed, smoke):
            key, _, raw = item.partition("=")
            node = config
            *parents, leaf = key.split(".")
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = yaml.safe_load(raw)
        return config


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp_sweep",
            why=("criterion-07 sweeps (5-class blobs MLP, batch 512, 5 etas for sofim and "
                 "for sgd): BLAS loss/grad and evaluation dominate, the step is under 2%"),
            commands=(Command("sweep", "blobs_mlp_sofim_sweep.yaml"),
                      Command("sweep", "blobs_mlp_sgd_sweep.yaml")),
            seeded=("seed", "problem.seed"),
            smoke=("iterations=20", "eval_every=5", "problem.n=500"),
        ),
        Workload(
            name="logistic_smallbatch",
            why=("one logistic run (d=21, batch 64, 10000 iterations): per-call Python "
                 "overhead of the loop, batching and dispatch dominates; bandwidth does not"),
            commands=(Command("run", "blobs_logistic_sofim.yaml", ("iterations=10000",)),),
            seeded=("seed", "problem.seed"),
            smoke=("iterations=100",),
        ),
        Workload(
            name="scaling_ladder",
            why=("step-time probe of sofim, sgd_momentum and adam at d=1e3..1e6: only the "
                 "kernels and steppers run, memory-bound at 1e6; no problem is built"),
            commands=(Command("scaling", "scaling.yaml"),),
            seeded=("seed",),
            smoke=("dims=[1000,10000]", "repeats=3"),
        ),
    )
}


def eval_rows(iterations: int, eval_every: int) -> int:
    return iterations // eval_every + (1 if iterations % eval_every else 0)


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _summary(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if "=" in line)


def _check_run_csv(path: Path, config: dict, errors: list) -> None:
    rows = _read_csv(path)
    if not rows or rows[0] != RUN_COLUMNS:
        errors.append(f"{path.name}: header {rows[:1]} is not the 7-column header")
        return
    summary_path = path.with_name(path.stem + "_summary.txt")
    if not summary_path.is_file():
        errors.append(f"{path.name}: no {summary_path.name}")
        return
    diverged = _summary(summary_path).get("diverged") == "True"
    expected = eval_rows(config["iterations"], config["eval_every"])
    body = rows[1:]
    if len(body) > expected or (not diverged and len(body) != expected):
        errors.append(f"{path.name}: {len(body)} eval rows, expected {expected}")
    if diverged:
        return  # a diverged point is a valid outcome; its losses may be anything
    try:
        for row in body:
            losses = [float(v) for v in row[2:5]]
            accuracy = float(row[5])
            if not all(math.isfinite(v) for v in losses) or not 0.0 <= accuracy <= 1.0:
                errors.append(f"{path.name}: non-finite loss or bad accuracy in {row}")
                return
    except (ValueError, IndexError) as exc:
        errors.append(f"{path.name}: unparsable row: {exc}")


def _grid_size(config: dict) -> int:
    return math.prod(len(v) for v in config["grid"].values())


def _check_scaling(path: Path, config: dict, errors: list) -> None:
    rows = _read_csv(path)
    if not rows or rows[0] != SCALING_COLUMNS:
        errors.append(f"scaling.csv: header {rows[:1]} is not {SCALING_COLUMNS}")
        return
    expected = [[opt, str(d)] for opt in config["optimizers"] for d in config["dims"]]
    if [row[:2] for row in rows[1:]] != expected:
        errors.append(f"scaling.csv: rows {[r[:2] for r in rows[1:]]}, expected {expected}")
        return
    for row in rows[1:]:
        try:
            seconds = float(row[2])
        except (ValueError, IndexError):
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds > 0):
            errors.append(f"scaling.csv: bad step time in {row}")


def _hashed_text(path: Path) -> bytes:
    """File bytes, with wall-clock columns removed from CSVs."""
    if path.suffix != ".csv":
        return path.read_bytes()
    rows = _read_csv(path)
    keep = [i for i, name in enumerate(rows[0] if rows else []) if name not in TIME_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep if i < len(row)])
    return out.getvalue().encode()


def check_outputs(workload: Workload, seed: int, out_dirs: list, smoke: bool) -> tuple:
    """Check every command's output directory; returns (digest, errors).

    The digest covers every CSV (time columns dropped) and every summary,
    so equal digests mean equal results.
    """
    errors: list = []
    digest = hashlib.sha256()
    for command, out in zip(workload.commands, out_dirs):
        out = Path(out)
        config = workload.config(command, seed, smoke)
        csvs = sorted(out.glob("*.csv"))
        if not (out / "config_echo.yaml").is_file():
            errors.append(f"{command.subcommand}: no config_echo.yaml")
        if command.subcommand == "scaling":
            if [p.name for p in csvs] != ["scaling.csv"]:
                errors.append(f"scaling: wrote {[p.name for p in csvs]}")
            else:
                _check_scaling(csvs[0], config, errors)
        else:
            points = _grid_size(config) if command.subcommand == "sweep" else 1
            if len(csvs) != points:
                errors.append(f"{command.subcommand}: {len(csvs)} CSVs, expected {points}")
            for path in csvs:
                _check_run_csv(path, config, errors)
            if command.subcommand == "sweep" and not (out / "sweep_summary.txt").is_file():
                errors.append("sweep: no sweep_summary.txt")
        for path in sorted(csvs + sorted(out.glob("*summary.txt"))):
            digest.update(f"{command.subcommand}/{path.name}\n".encode())
            digest.update(_hashed_text(path))
    return digest.hexdigest(), errors
