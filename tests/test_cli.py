"""Command-line interface: exit codes, output files, config echo
round-trips, overrides, and the no-stray-writes guarantee.

Tests call cli.main() in process so exit codes are observed directly.
"""

import argparse
import contextlib
import copy
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sofim import cli, harness, problems

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.yaml"))


def write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def run_config(tmp_path, **overrides):
    data = {
        "problem": {"kind": "blobs", "n": 200, "p": 6, "classes": 2,
                    "spread": 3.0, "seed": 0, "model": "logistic"},
        "optimizer": "sofim",
        "hyperparameters": {"eta": 0.1, "rho": 0.5},
        "iterations": 40,
        "batch_size": 32,
        "eval_every": 20,
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    return write_yaml(tmp_path / "config.yaml", data)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall(rows):
    return [row[:-1] for row in rows]


class TestRunCommand:
    def test_writes_csv_summary_and_echo(self, tmp_path, capsys):
        """A run produces the CSV, the summary and the config echo."""
        assert cli.main(["run", run_config(tmp_path)]) == 0
        out = tmp_path / "out"
        csvs = list(out.glob("*_sofim_*.csv"))
        assert len(csvs) == 1
        assert (out / "config_echo.yaml").is_file()
        stem = csvs[0].stem
        assert (out / f"{stem}_summary.txt").is_file()
        assert "final_test_accuracy" in capsys.readouterr().out

    def test_csv_has_contract_columns(self, tmp_path):
        """Emitted CSV carries the exact documented header."""
        cli.main(["run", run_config(tmp_path)])
        rows = read_csv_rows(next((tmp_path / "out").glob("*.csv")))
        assert tuple(rows[0]) == harness.CSV_COLUMNS

    def test_determinism_across_invocations(self, tmp_path):
        """Two invocations give byte-identical CSVs minus wall time."""
        config = run_config(tmp_path)
        cli.main(["run", config])
        path = next((tmp_path / "out").glob("*.csv"))
        first = read_csv_rows(path)
        cli.main(["run", config])
        second = read_csv_rows(path)
        assert strip_wall(first) == strip_wall(second)

    def test_echoed_config_reproduces_run(self, tmp_path):
        """Re-running from config_echo.yaml regenerates the same CSV."""
        cli.main(["run", run_config(tmp_path)])
        out = tmp_path / "out"
        path = next(out.glob("*.csv"))
        first = read_csv_rows(path)
        assert cli.main(["run", str(out / "config_echo.yaml")]) == 0
        assert strip_wall(read_csv_rows(path)) == strip_wall(first)

    def test_set_overrides_apply_after_file(self, tmp_path):
        """--set changes nested scalars and therefore the output name."""
        config = run_config(tmp_path)
        cli.main(["run", config])
        cli.main(["run", config, "--set", "hyperparameters.eta=0.01",
                  "--set", "seed=9"])
        csvs = list((tmp_path / "out").glob("*.csv"))
        assert len(csvs) == 2, "override must produce a different config hash"
        echoed = yaml.safe_load((tmp_path / "out" / "config_echo.yaml").read_text())
        assert echoed["hyperparameters"]["eta"] == 0.01
        assert echoed["seed"] == 9

    def test_override_fills_an_empty_mapping(self, tmp_path):
        """A dotted override into a key left empty in the file (YAML null)
        makes it a mapping, as into a missing key."""
        assert cli.main(["run", run_config(tmp_path, hyperparameters=None),
                         "--set", "hyperparameters.eta=0.05"]) == 0
        echoed = yaml.safe_load((tmp_path / "out" / "config_echo.yaml").read_text())
        assert echoed["hyperparameters"] == {"eta": 0.05}

    def test_no_writes_outside_output_dir(self, tmp_path, monkeypatch):
        """Everything lands under output_dir, even with a different cwd."""
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["run", run_config(tmp_path)]) == 0
        assert list(workdir.iterdir()) == []

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        """SOFIM_OUTPUT_DIR supplies the default output directory."""
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("SOFIM_OUTPUT_DIR", str(env_out))
        config = run_config(tmp_path)
        data = yaml.safe_load(Path(config).read_text())
        del data["output_dir"]
        write_yaml(tmp_path / "config.yaml", data)
        assert cli.main(["run", config]) == 0
        assert list(env_out.glob("*.csv"))

    def test_omitted_integer_keys_keep_experiment_defaults(self, tmp_path, monkeypatch):
        """A config without iterations, batch_size, eval_every or seed runs
        with ExperimentConfig's own defaults."""
        data = yaml.safe_load(Path(run_config(tmp_path)).read_text())
        for key in ("iterations", "batch_size", "eval_every", "seed"):
            del data[key]
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise RuntimeError("captured")

        monkeypatch.setattr(harness, "run_experiment", capture)
        assert cli.main(["run", write_yaml(tmp_path / "config.yaml", data)]) == 2
        assert seen == [harness.ExperimentConfig(
            problem=data["problem"], optimizer="sofim",
            hyperparameters=data["hyperparameters"],
        )]


class TestExitCodes:
    def test_missing_config_path(self, capsys):
        """run without a path exits 1 and names the problem."""
        assert cli.main(["run"]) == 1
        assert "config" in capsys.readouterr().err

    def test_nonexistent_config_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        """A typoed top-level key is rejected by name."""
        config = run_config(tmp_path, iterationz=9)
        assert cli.main(["run", config]) == 1
        assert "iterationz" in capsys.readouterr().err

    def test_non_integer_key_named(self, tmp_path, capsys):
        """Integer keys are type-checked by name: a quoted number is refused."""
        assert cli.main(["run", run_config(tmp_path, batch_size="32")]) == 1
        assert "batch_size" in capsys.readouterr().err
        assert cli.main(["scaling", "--set", "repeats=2.5", "--set", "dims=[8]",
                         "--set", f"output_dir={tmp_path / 'out'}"]) == 1
        assert "repeats" in capsys.readouterr().err

    def test_unknown_hyperparameter_named(self, tmp_path, capsys):
        config = run_config(tmp_path, hyperparameters={"eta": 0.1, "rho": 0.5,
                                                       "gamma": 2.0})
        assert cli.main(["run", config]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand,override,key", [
        ("run", "hyperparameters.eta=abc", "'eta'"),
        ("run", "hyperparameters.rho=[1]", "'rho'"),
        ("run", "loss_thresholds=[abc]", "'loss_thresholds'"),
        ("run", "loss_thresholds=abc", "'loss_thresholds' must be a number or a list of "
                                       "numbers, got 'abc'"),
        ("run", "loss_thresholds=", "'loss_thresholds' must be a number or a list of "
                                    "numbers, got ''"),
        ("run", "problem.n=abc", "'n'"),
        ("run", "seed=-1", "seed"),
        ("run", "problem.seed=-1", "'seed'"),
        ("sweep", "grid.eta=[x]", "'eta'"),
        ("sweep", "grid.rho=[x]", "'rho'"),
        ("scaling", "dims=[x]", "dims"),
        ("scaling", "hyperparameters=[1]", "'hyperparameters'"),
        ("scaling", "hyperparameters.eta=x", "'eta'"),
        ("scaling", "optimizers=5", "'optimizers'"),
        ("scaling", "seed=-1", "seed"),
        ("run", "hyperparameters.eta=true", "'eta'"),
        ("run", "loss_thresholds=true", "'loss_thresholds'"),
        ("run", "problem.p=6.5", "'p'"),
        ("run", "problem.classes=on", "'classes'"),
        ("run", "output_dir=false", "output_dir"),
        ("run", "output_dir=0", "output_dir"),
        ("scaling", "dims=[64.7]", "dims"),
        ("run", "hyperparameters.rho=.inf", "'rho'"),
        ("run", "hyperparameters.eta=.inf", "'eta'"),
        ("run", "problem={kind: quadratic, condition_number: .inf}", "'condition_number'"),
        ("run", "loss_thresholds=.nan", "'loss_thresholds'"),
        ("sweep", "grid.rho=[0.5, .inf]", "'rho'"),
        ("run", "hyperparameters.rho='0.5'", "'rho'"),
        ("run", "problem.n='2000'", "'n'"),
        ("run", "problem.spread='3.0'", "'spread'"),
        ("run", "loss_thresholds=['0.5']", "'loss_thresholds'"),
        ("sweep", "grid.eta=['0.1']", "'eta'"),
        ("scaling", "dims=['1000']", "dims"),
        ("scaling", "hyperparameters.eta='0.1'", "'eta'"),
        ("sweep", "grid.eta=[1, 1.0]", "'eta'"),
        ("scaling", "dims=[1000, 1000]", "dims"),
        ("scaling", "optimizers=[sofim, sofim]", "config key 'optimizers' lists an optimizer "
                                                 "more than once: ['sofim', 'sofim']"),
        ("scaling", "optimizers=[sofim, x]", "config key 'optimizers' names unknown "
                                             "optimizer(s) ['x']"),
        ("run", "optimizer=x", "config key 'optimizer' names unknown optimizer 'x'"),
        ("sweep", "optimizer=x", "config key 'optimizer' names unknown optimizer 'x'"),
        ("run", "problem.hidden=64", "problem key 'hidden' applies only to model 'mlp', "
                                     "not 'logistic'"),
        ("run", "problem.activation=gelu", "problem key 'activation' applies only to model "
                                           "'mlp', not 'logistic'"),
        ("run", "problem.classes=-3", "need n >= classes >= 2, got n=200, classes=-3"),
        ("run", "problem={kind: blobs, classes: 3}", "model 'logistic' needs binary labels, "
                                                     "got 3 classes"),
        ("run", "problem={kind: blobs, model: mlp, hidden: 0}", "hidden must be >= 1, got 0"),
        ("run", "loss_thresholds=[0.5, 0.5]", "config key 'loss_thresholds' lists thresholds "
                                              "that share a summary key: [0.5, 0.5]"),
        ("run", "loss_thresholds=[1.0e-7, 1.00000001e-7]", "'loss_thresholds'"),
        ("sweep", "grid={}", "config key 'grid' must be a non-empty mapping"),
        ("scaling", "optimizers=[newton_oracle]", "config key 'optimizers' names unknown "
                                                  "optimizer(s) ['newton_oracle']; expected ids "
                                                  "from ('sofim', 'sgd_momentum', 'adam')"),
        ("run", "optimizer.eta=0.1", "override 'optimizer.eta=0.1' descends into config key "
                                     "'optimizer', which holds 'sofim', not a mapping"),
        ("run", "problem.kind.x=1", "override 'problem.kind.x=1' descends into config key "
                                    "'problem.kind', which holds 'blobs', not a mapping"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, subcommand, override,
                                             key):
        """A value of the wrong type exits 1 with a config error naming its key."""
        config = [] if subcommand == "scaling" else [run_config(tmp_path)]
        argv = [subcommand, *config, "--set", f"output_dir={tmp_path / 'out'}",
                "--set", "repeats=1" if subcommand == "scaling" else "iterations=20",
                "--set", override]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err

    @pytest.mark.parametrize("subcommand,overrides", [
        ("run", ["hyperparameters.rho=-1"]),
        ("sweep", ["grid.eta=[0.1, -1]"]),
        pytest.param("sweep", ["optimizer=adam", "hyperparameters={}", "grid.rho=[0.5]"],
                     id="rho-sweep-overrides2"),
        ("scaling", ["optimizers=[sofim, adam, bogus]", "dims=[8]", "repeats=1"]),
        ("scaling", ["optimizers=[ngd_oracle]", "dims=[4096]", "repeats=1"]),
        ("run", ["problem.classes=on"]),
        ("sweep", ["problem.model=tree"]),
        pytest.param("sweep", ["grid.rho=[1.0, 0.5]", "problem.n=1"], id="rho-sweep-overrides7"),
        ("scaling", ["optimizers=[]"]),
        ("run", ["problem.p=0"]),
        ("sweep", ["grid.eta=[0.1, 0.1]"]),
        ("scaling", ["dims=[1000, 1000]", "repeats=1"]),
        ("run", ["problem.p=-1"]),
        ("scaling", ["optimizers=[sofim, sofim]", "dims=[8]", "repeats=1"]),
        ("scaling", ["optimizers=[sofim, x]", "dims=[8]", "repeats=1"]),
        ("run", ["problem.hidden=64", "problem.activation=relu"]),
        ("run", ["problem.classes=-3"]),
        ("run", ["loss_thresholds=[1.0e-7, 1.00000001e-7, 0.5, 0.5]"]),
        ("run", ["problem={kind: csv, path: no_such_dir/missing.csv}"]),
        ("run", ["problem={kind: csv, path: one_class.csv, model: softmax}"]),
        ("run", ["problem={kind: csv, path: label_twice.csv}"]),
        ("run", ["optimizer=newton_oracle"]),
        ("sweep", ["optimizer=newton_oracle"]),
        ("scaling", ["optimizers=[newton_oracle]", "dims=[8]", "repeats=1"]),
        ("run", ["optimizer=ngd_oracle", "hyperparameters={}"]),
        ("sweep", ["optimizer=ngd_oracle", "hyperparameters={}"]),
        ("scaling", ["optimizers=[ngd_oracle]", "dims=[8]", "repeats=1"]),
        ("run", ["optimizer.eta=0.1"]),
    ])
    def test_refused_config_writes_nothing(self, tmp_path, monkeypatch, capsys, subcommand,
                                           overrides):
        """A refused config exits 1 without creating its output directory,
        a problem spec refused while the problem is built included."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one_class.csv").write_text("a,label\n1,4\n2,4\n3,4\n4,4\n5,4\n")
        (tmp_path / "label_twice.csv").write_text("a,label,label\n1,0,0\n2,1,1\n3,0,1\n4,1,0\n")
        out = tmp_path / "out"
        config = [] if subcommand == "scaling" else [run_config(tmp_path)]
        argv = [subcommand, *config, "--set", f"output_dir={out}"]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("problem,message", [
        ({"kind": "blobs", "n": 2, "p": 6, "classes": 2},
         "the test split is empty: 2 of 2 rows go to train and 0 to test"),
        ({"kind": "csv", "path": "two_rows.csv", "split_fraction": 0.1},
         "the train split is empty: 0 of 2 rows go to train and 2 to test"),
    ], ids=["blobs-n2", "csv-fraction-0.1"])
    def test_empty_split_is_refused_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                       problem, message):
        """A problem whose train or test split is empty exits 1 saying which,
        before any training or standardizing, and writes nothing."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two_rows.csv").write_text("a,b,label\n1,2,0\n3,4,1\n")
        assert cli.main(["run", run_config(tmp_path, problem=problem)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_label_only_csv_is_refused_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A CSV whose only column is the label exits 1 naming the file,
        instead of training a zero-parameter model, and writes nothing."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "labels.csv").write_text("label\n0\n1\n2\n0\n1\n2\n")
        problem = {"kind": "csv", "path": "labels.csv", "model": "softmax"}
        assert cli.main(["run", run_config(tmp_path, problem=problem)]) == 1
        assert capsys.readouterr().err == ("config error: labels.csv: no feature columns "
                                           "besides label column 'label'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand,overrides", [
        ("run", []), ("sweep", []), ("sweep", ["grid.rho=[1.0, 0.5]"]), ("scaling", []),
    ], ids=["run", "sweep", "rho-sweep", "scaling"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_naming_a_file_is_refused_before_training(
            self, tmp_path, monkeypatch, capsys, subcommand, overrides, below):
        """An output_dir that is, or lies under, an existing file exits 1
        naming output_dir, before any training, and writes nothing."""
        calls = []
        for name in ("run_experiment", "sweep", "scaling_probe"):
            monkeypatch.setattr(harness, name, lambda *a, _name=name, **k: calls.append(_name))
        config = [] if subcommand == "scaling" else [run_config(tmp_path)]
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        before = sorted(tmp_path.rglob("*"))
        argv = [subcommand, *config, "--set", f"output_dir={taken / below}"]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "output_dir" in err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before and taken.read_text() == "keep\n"

    def test_ngd_above_cap_is_refused_before_training(self, tmp_path, monkeypatch, capsys):
        """An NGD run on a problem above the removed dense oracle's cap (a
        6-40-3 MLP, d = 403) exits 1 as an unknown optimizer when its config
        is read: before any forward pass, and writing nothing."""
        calls = []
        forward = problems.MlpProblem.loss_and_grad
        monkeypatch.setattr(problems.MlpProblem, "loss_and_grad",
                            lambda *a, **k: calls.append(a) or forward(*a, **k))
        problem = {"kind": "blobs", "n": 200, "p": 6, "classes": 3, "model": "mlp", "hidden": 40}
        config = run_config(tmp_path, problem=problem, optimizer="ngd_oracle", hyperparameters={})
        assert cli.main(["run", config]) == 1
        assert capsys.readouterr().err == ("config error: config key 'optimizer' names unknown "
                                           "optimizer 'ngd_oracle'; expected one of "
                                           "('sofim', 'sgd_momentum', 'adam')\n")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_bad_scaling_optimizer_starts_no_probe(self, tmp_path, monkeypatch, capsys):
        """Every listed optimizer is checked before the first probe runs."""
        calls = []
        monkeypatch.setattr(harness, "scaling_probe", lambda *a, **k: calls.append(a) or [])
        assert cli.main(["scaling", "--set", "optimizers=[sofim, adam, bogus]",
                         "--set", "dims=[8]", "--set", f"output_dir={tmp_path}"]) == 1
        assert "bogus" in capsys.readouterr().err
        assert calls == []

    def test_one_probe_call_per_listed_optimizer(self, tmp_path, monkeypatch, capsys):
        """A scaling file's one config is probed once per listed optimizer,
        in the file's order, every call sharing that config."""
        calls = []
        monkeypatch.setattr(harness, "scaling_probe",
                            lambda cfg, optimizer_id: calls.append((cfg, optimizer_id)) or [])
        assert cli.main(["scaling", "--set", "optimizers=[adam, sofim]", "--set", "dims=[8]",
                         "--set", "repeats=1", "--set", f"output_dir={tmp_path}"]) == 0
        capsys.readouterr()
        assert [optimizer_id for _, optimizer_id in calls] == ["adam", "sofim"]
        (cfg, _), (other, _) = calls
        assert other is cfg and cfg.optimizers == ("adam", "sofim") and cfg.dims == (8,)

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("problem: [unclosed\n")
        assert cli.main(["run", str(path)]) == 1
        assert "YAML" in capsys.readouterr().err

    def test_negative_rho_is_config_error(self, tmp_path, capsys):
        """rho <= 0 is caught at validation with exit 1."""
        config = run_config(tmp_path, hyperparameters={"eta": 0.1, "rho": -1.0})
        assert cli.main(["run", config]) == 1
        assert "rho" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["launch"]) == 1
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_no_subcommand_names_exactly_the_parsers_subcommands(self, capsys):
        """The missing-subcommand message lists the subcommands the parser
        accepts, no more and no fewer."""
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert cli.main([]) == 1
        listed = re.fullmatch(r"config error: a subcommand is required \((.*)\)\n",
                              capsys.readouterr().err)
        assert listed and listed.group(1).split(", ") == list(subparsers.choices)

    def test_runtime_failure_maps_to_two(self, tmp_path, monkeypatch, capsys):
        """Unexpected exceptions inside a run exit 2, not a traceback."""
        def boom(cfg):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(harness, "run_experiment", boom)
        assert cli.main(["run", run_config(tmp_path)]) == 2
        assert "disk on fire" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "run" in capsys.readouterr().out


class TestRunFileSchema:
    #: Each run-file key with a value other than the base config's and the
    #: ExperimentConfig field it must set to the given value.
    CASES = {
        "problem": ({"kind": "quadratic", "dim": 5, "condition_number": 2.0},
                    "problem", {"kind": "quadratic", "dim": 5, "condition_number": 2.0}),
        "optimizer": ("adam", "optimizer", "adam"),
        "hyperparameters": ({"eta": 0.05}, "hyperparameters", {"eta": 0.05}),
        "batch_size": (3, "batch_size", 3),
        "iterations": (70, "iterations", 70),
        "eval_every": (5, "eval_every", 5),
        "seed": (4, "seed", 4),
        "loss_thresholds": ([0.5, 2], "loss_thresholds", (0.5, 2.0)),
    }

    def captured_config(self, tmp_path, monkeypatch, **keys):
        data = {"problem": {"kind": "quadratic", "dim": 4}, "optimizer": "sofim",
                "output_dir": str(tmp_path / "out"), **keys}
        seen = []

        def capture(cfg):
            seen.append(cfg)
            raise RuntimeError("captured")

        monkeypatch.setattr(harness, "run_experiment", capture)
        assert cli.main(["run", write_yaml(tmp_path / "config.yaml", data)]) == 2
        return seen[0]

    @pytest.mark.parametrize("subcommand,cls,file_names", [
        ("run", harness.ExperimentConfig, {}),
        ("scaling", harness.ScalingConfig, {}),
    ], ids=["run", "scaling"])
    def test_run_keys_are_the_experiment_config_fields(self, tmp_path, capsys, subcommand, cls,
                                                       file_names):
        """The keys a run or scaling file takes are its config's fields, plus
        output_dir."""
        expected = {file_names.get(f.name, f.name) for f in fields(cls)} | {"output_dir"}
        config = [run_config(tmp_path)] if subcommand == "run" else []
        assert cli.main([subcommand, *config, "--set", "bogus=1"]) == 1
        assert f"allowed: {sorted(expected)}" in capsys.readouterr().err

    def test_each_key_sets_its_field(self, tmp_path, monkeypatch):
        """Setting a run-file key changes exactly the matching field of the
        config handed to the harness."""
        assert ({field for _, field, _ in self.CASES.values()}
                == {f.name for f in fields(harness.ExperimentConfig)})
        base = self.captured_config(tmp_path, monkeypatch)
        for key, (value, field, expected) in self.CASES.items():
            cfg = self.captured_config(tmp_path, monkeypatch, **{key: value})
            assert getattr(cfg, field) == expected != getattr(base, field), key
            assert cfg.to_dict() == {**base.to_dict(), field: expected}, key


class TestShippedConfigs:
    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
    def test_config_passes_its_subcommand_checks(self, path):
        """Each shipped config names its subcommand on a '# Usage: sofim
        <subcommand>' line, and its keys, output directory, job and problem
        spec pass that subcommand's checks; nothing is trained."""
        usage = re.search(r"^# Usage: sofim (\S+)", path.read_text(encoding="utf-8"), re.M)
        assert usage, f"{path.name} has no '# Usage: sofim <subcommand>' line"
        config = cli._load_config(str(path), usage.group(1))
        cli._output_dir(config)
        harness.read_configs(usage.group(1), config)
        if "problem" in config:
            problems.problem_from_spec(config["problem"])


def respelled(value):
    """``value`` with every integral number respelled, an int as a float and
    an integral float as an int, at any depth; other values are kept."""
    if isinstance(value, dict):
        return {key: respelled(item) for key, item in value.items()}
    if isinstance(value, list):
        return [respelled(item) for item in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value) if isinstance(value, int) else int(value) if value.is_integer() else value


def usage(path):
    """The subcommand on a config's ``# Usage: sofim <subcommand>`` line."""
    return re.search(r"^# Usage: sofim (\S+)", path.read_text(encoding="utf-8"), re.M).group(1)


class TestConfigIdentity:
    @pytest.mark.parametrize("subcommand,first,second", [
        ("run", "hyperparameters.rho=1", "hyperparameters.rho=1.0"),
        ("sweep", "grid={rho: [1]}", "grid={rho: [1.0]}"),
        ("run", "problem.spread=3", "problem.spread=3.0"),
    ], ids=["hyperparameters", "grid", "problem"])
    def test_one_stem_for_two_spellings(self, tmp_path, capsys, subcommand, first, second):
        """``1`` and ``1.0`` name one run: either spelling writes the same
        stem, and a sweep labels its point the same."""
        config = run_config(tmp_path, iterations=20)
        out = tmp_path / "out"
        summaries = []
        for override in (first, second):
            assert cli.main([subcommand, config, "--set", override]) == 0
            if subcommand == "sweep":
                summaries.append((out / "sweep_summary.txt").read_text())
        capsys.readouterr()
        assert len(list(out.glob("*.csv"))) == 1
        assert summaries[:1] == summaries[1:]

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_hashes_ignore_spelling(self, path):
        """Respelling every integral number of a shipped config (in
        ``problem``, ``hyperparameters``, ``grid``, ``dims`` and the top-level
        integer keys) builds the same configs: a run or sweep names the same
        runs, and a scaling file builds equal ScalingConfigs.  Nothing is
        trained."""
        def built(config):
            return harness.read_configs(usage(path), config)

        config = cli._load_config(str(path), usage(path))
        assert repr(respelled(config)) != repr(config)
        original, again = built(config), built(respelled(config))
        assert repr(again) == repr(original)  # repr, unlike ==, tells 1 from 1.0
        if usage(path) != "scaling":
            assert [cfg.config_hash() for cfg in again] == [cfg.config_hash() for cfg in original]


def comparable(out_dir):
    """Each file of ``out_dir`` by name: a CSV without its last column, the
    wall time (``wall_ms`` or ``median_step_seconds``), and the echo with
    ``out_dir`` replaced by a placeholder."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            files[path.name] = strip_wall(read_csv_rows(path))
        else:
            files[path.name] = path.read_text(encoding="utf-8").replace(str(out_dir), "<out>")
    return files


class TestEchoReplay:
    @pytest.mark.parametrize("path,overrides", [
        *((path, []) for path in CONFIGS),
        (REPO / "configs" / "blobs_mlp_rho_sweep.yaml",
         ["grid={rho: [1.0, 0.5], eta: [0.1, 0.01]}"]),
    ], ids=[*(path.name for path in CONFIGS), "blobs_mlp_rho_sweep.yaml-two-axes"])
    def test_replay_from_the_echo_writes_the_same_files(self, tmp_path, capsys, path, overrides):
        """A shipped config run at a small size, then replayed from its
        config_echo.yaml into a second directory, writes the same files
        with the same contents, wall times and the output directory aside:
        a sweep neither relabels nor reorders its points."""
        sizes = (["dims=[8, 16]", "repeats=2"] if usage(path) == "scaling"
                 else ["iterations=20", "eval_every=10"])
        first, second = tmp_path / "first", tmp_path / "second"
        argv = [usage(path), str(path), "--set", f"output_dir={first}"]
        for item in [*sizes, *overrides]:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        assert cli.main([usage(path), str(first / "config_echo.yaml"),
                         "--set", f"output_dir={second}"]) == 0
        capsys.readouterr()
        assert comparable(second) == comparable(first)


#: The values a fuzzed key takes in place of its own: each type a YAML
#: value can have, and the edge values of a number.  None is large, so no
#: size key (``iterations``, ``dims``, ``repeats``, ``n``, ``batch_size``)
#: makes a run or a probe long.
SWAPS = (True, "x", [1], {"zzz": 1}, None, math.nan, math.inf, -math.inf, -3, 2.5)
#: The fuzzed shipped configs: each one's subcommand, and the test's own
#: small sizes and hyperparameters, so that every mutant runs quickly and
#: the scaling file has a ``hyperparameters`` mapping to mutate; the logistic
#: run also fuzzes as a 3-class MLP, and each sweep at 200 rows, width 4 and
#: a 2-point grid.  Each run or probe has fewer mutants than the fuzzer's
#: example count, so Hypothesis, which does not repeat an example, runs each
#: of them once.  A sweep has about 300 mutants, about 1.9 s in all on a
#: 2-vCPU host, so it draws :data:`SWEEP_EXAMPLES` of them, about 0.5 s.
FUZZED = {
    name: (subcommand, {**yaml.safe_load((REPO / "configs" / name).read_text(encoding="utf-8")),
                        **sizes, "output_dir": "out"})
    for name, subcommand, sizes in [
        ("scaling.yaml", "scaling",
         {"dims": [8, 16], "repeats": 2, "hyperparameters": {"eta": 0.01}}),
        ("blobs_logistic_sofim.yaml", "run", {"iterations": 20, "eval_every": 10}),
        *((name, "sweep", {"iterations": 20, "eval_every": 10, "grid": grid})
          for name, grid in [("blobs_mlp_sgd_sweep.yaml", {"eta": [0.1, 0.01]}),
                             ("blobs_mlp_sofim_sweep.yaml", {"eta": [0.1, 0.01]}),
                             ("blobs_mlp_rho_sweep.yaml", {"rho": [1.0, 0.5]})]),
    ]
}
_, _LOGISTIC = FUZZED["blobs_logistic_sofim.yaml"]
FUZZED["blobs_logistic_sofim.yaml-mlp"] = ("run", {**_LOGISTIC, "problem": {
    **_LOGISTIC["problem"], "model": "mlp", "hidden": 4, "classes": 3}})
for _subcommand, _base in FUZZED.values():
    if _subcommand == "sweep":
        _base["problem"].update(n=200, hidden=4)
SWEEP_EXAMPLES = 60


@st.composite
def mutants(draw, base):
    """``base`` with one key dropped, one unknown key added, or one value
    swapped for one of :data:`SWAPS`, at the top level or inside
    ``hyperparameters``, ``problem`` or ``grid``, or one entry of a ``grid``
    list dropped, swapped or added (a :data:`SWAPS` value or a repeat); and
    the names an error may give it: the key, the keys of a mapping swapped
    in, and the mapping whose only key was dropped (an empty ``grid`` is
    refused by name).  A grid list's mutant is named by its axis."""
    config = copy.deepcopy(base)
    path = draw(st.sampled_from([None, *(key for key in ("hyperparameters", "problem", "grid")
                                         if key in config),
                                 *(("grid", axis) for axis in config.get("grid", {}))]))
    action = draw(st.sampled_from(["drop", "add", "swap"]))
    if isinstance(path, tuple):
        values = config["grid"][path[1]]
        if action == "add":
            values.append(draw(st.sampled_from([*SWAPS, *values])))
        else:
            index = draw(st.integers(0, len(values) - 1))
            if action == "drop":
                del values[index]
            else:
                values[index] = draw(st.sampled_from(SWAPS))
        return config, (path[1],)
    node = config if path is None else config[path]
    key = "bogus" if action == "add" else draw(st.sampled_from(sorted(node)))
    if action == "drop":
        del node[key]
        return config, (key, *((path,) if path and not node else ()))
    node[key] = draw(st.sampled_from(SWAPS))
    return config, (key, *(node[key] if isinstance(node[key], dict) else ()))


@contextlib.contextmanager
def working_directory(path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


class TestConfigFuzzer:
    @pytest.mark.parametrize("name", FUZZED)
    def test_mutant_exits_zero_or_one_naming_its_key(self, name):
        """A shipped config with one key dropped, added or given another type
        or an edge value exits 0, or exits 1 with a config error that names
        the key and writes nothing; never 2, never an uncaught exception.
        A mapping swapped in may be named by its own key.  A mutant that
        exits 0 replays from its one config_echo.yaml (under ``runs/`` when
        it names no output_dir) into a second directory with the same files;
        the two echoes differ only in their output_dir."""
        subcommand, base = FUZZED[name]

        def echo_without_output_dir(out_dir):
            echo = yaml.safe_load((out_dir / "config_echo.yaml").read_text(encoding="utf-8"))
            del echo["output_dir"]
            return echo

        @settings(max_examples=SWEEP_EXAMPLES if subcommand == "sweep" else 400, deadline=None)
        @given(mutants(base))
        def check(mutant):
            config, names = mutant
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
                os.environ.pop(cli.DEFAULT_OUTPUT_DIR_ENV, None)
                work, replay = Path(tmp) / "work", Path(tmp) / "replay"
                work.mkdir()
                argv = [subcommand, write_yaml(Path(tmp) / "config.yaml", config)]
                with (working_directory(work), contextlib.redirect_stdout(io.StringIO()),
                      contextlib.redirect_stderr(err)):
                    code = cli.main(argv)
                written = sorted(work.rglob("*"))
                assert code in (0, 1), err.getvalue()
                if code == 1:
                    assert err.getvalue().startswith("config error")
                    assert any(key in err.getvalue() for key in names)
                    assert written == []
                    return
                [echo] = work.rglob("config_echo.yaml")
                with (working_directory(work), contextlib.redirect_stdout(io.StringIO()),
                      contextlib.redirect_stderr(err)):
                    code = cli.main([subcommand, str(echo), "--set", f"output_dir={replay}"])
                assert code == 0, err.getvalue()
                first, again = comparable(echo.parent), comparable(replay)
                del first["config_echo.yaml"], again["config_echo.yaml"]
                assert again == first
                assert echo_without_output_dir(replay) == echo_without_output_dir(echo.parent)

        check()


class TestSweepCommands:
    def test_sweep_writes_point_csvs_and_summary(self, tmp_path, capsys):
        """A 2-point eta grid writes 2 CSVs and names a best point."""
        config = run_config(tmp_path, grid={"eta": [0.1, 0.01]}, iterations=30)
        assert cli.main(["sweep", config]) == 0
        out = tmp_path / "out"
        assert len(list(out.glob("logistic7_sofim_*.csv"))) == 2
        summary = (out / "sweep_summary.txt").read_text()
        assert "best=" in summary
        assert "best=none" not in summary

    def test_rho_sweep_three_csvs_and_best(self, tmp_path):
        """A rho grid {1, 0.5, 0.1} writes 3 CSVs plus a summary naming
        each point and the selected best one by its hyperparameters."""
        config = run_config(tmp_path, iterations=30, grid={"rho": [1.0, 0.5, 0.1]})
        assert cli.main(["sweep", config]) == 0
        out = tmp_path / "out"
        assert len(list(out.glob("logistic7_sofim_*.csv"))) == 3
        lines = (out / "sweep_summary.txt").read_text().splitlines()
        assert [line.split(" diverged=")[0] for line in lines[:3]] == [
            f"point={{'eta': 0.1, 'rho': {rho}}}" for rho in (1.0, 0.5, 0.1)]
        assert lines[3].startswith("best={'eta': 0.1, 'rho': ")

    def test_rho_sweep_rejects_non_sofim(self, tmp_path, capsys):
        """rho is sofim's alone: a rho grid for adam is refused naming it."""
        config = run_config(tmp_path, optimizer="adam", hyperparameters={"eta": 0.001},
                            grid={"rho": [0.5]})
        assert cli.main(["sweep", config]) == 1
        assert "unknown hyperparameter(s) ['rho']" in capsys.readouterr().err

    def test_damping_config_keeps_its_point_identities(self, tmp_path, capsys):
        """The shipped damping config, swept at 50 iterations, writes the
        three points the former ``rho-sweep`` subcommand wrote, under the
        same config hashes; ``rho-sweep`` itself is gone (exit 1)."""
        config = str(REPO / "configs" / "blobs_mlp_rho_sweep.yaml")
        out = tmp_path / "out"
        assert cli.main(["sweep", config, "--set", "iterations=50",
                         "--set", f"output_dir={out}"]) == 0
        capsys.readouterr()
        assert sorted(path.stem for path in out.glob("*.csv")) == [
            "mlp50x32x5tanh_sofim_278ff08fa9",  # rho 0.5
            "mlp50x32x5tanh_sofim_39fae354c5",  # rho 1.0
            "mlp50x32x5tanh_sofim_4ed5d1bea4",  # rho 0.1
        ]
        assert cli.main(["rho-sweep", config, "--set", f"output_dir={tmp_path / 'old'}"]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "old").exists()

    def test_sweep_rejects_bad_grid(self, tmp_path, capsys):
        config = run_config(tmp_path, grid={"eta": []})
        assert cli.main(["sweep", config]) == 1
        assert "grid" in capsys.readouterr().err


class TestScalingCommand:
    def test_writes_scaling_csv(self, tmp_path, monkeypatch, capsys):
        """The probe writes one row per (optimizer, dimension)."""
        monkeypatch.setenv("SOFIM_OUTPUT_DIR", str(tmp_path / "scale_out"))
        config = write_yaml(tmp_path / "s.yaml",
                            {"optimizers": ["sofim", "sgd_momentum"],
                             "dims": [64, 128], "repeats": 2})
        assert cli.main(["scaling", config]) == 0
        rows = read_csv_rows(tmp_path / "scale_out" / "scaling.csv")
        assert rows[0] == ["optimizer", "d", "median_step_seconds"]
        assert len(rows) == 5
        assert {row[0] for row in rows[1:]} == {"sofim", "sgd_momentum"}

    def test_defaults_without_config(self, tmp_path, monkeypatch):
        """scaling runs without a config file using --set overrides."""
        monkeypatch.setenv("SOFIM_OUTPUT_DIR", str(tmp_path / "out"))
        assert cli.main(["scaling", "--set", "dims=[32, 64]",
                         "--set", "repeats=2",
                         "--set", "optimizers=[sofim]"]) == 0
        assert (tmp_path / "out" / "scaling.csv").is_file()

    def test_oracle_above_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        """The removed dense NGD oracle, asked for above its former cap, is an
        unknown optimizer: exit 1, nothing written."""
        monkeypatch.setenv("SOFIM_OUTPUT_DIR", str(tmp_path / "out"))
        config = write_yaml(tmp_path / "s.yaml",
                            {"optimizers": ["ngd_oracle"], "dims": [4096],
                             "repeats": 1})
        assert cli.main(["scaling", config]) == 1
        assert "unknown optimizer(s) ['ngd_oracle']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_prints_per_problem_errors(self, capsys):
        """gradcheck reports each default problem below tolerance, exit 0."""
        assert cli.main(["gradcheck", "--points", "3"]) == 0
        out = capsys.readouterr().out
        for name in ("quadratic", "logistic", "softmax", "mlp_tanh"):
            assert name in out
        assert "FAIL" not in out

    def test_failure_exits_two(self, monkeypatch, capsys):
        """A tolerance violation is a runtime failure (exit 2)."""
        checked = cli._gradcheck_problems
        monkeypatch.setattr(cli, "_gradcheck_problems", lambda seed: {
            **checked(seed), "quadratic": (checked(seed)["quadratic"][0], 1e-30)})
        assert cli.main(["gradcheck", "--points", "2"]) == 2
        assert "quadratic" in capsys.readouterr().err

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        """A problem whose gradient is all NaN reads a NaN error, FAIL and
        exit 2, not ok."""
        quadratic = problems.make_quadratic(5, 10.0, 0)
        monkeypatch.setattr(quadratic, "grad", lambda w, batch=None: np.full(5, np.nan))
        monkeypatch.setattr(cli, "_gradcheck_problems",
                            lambda seed: {"quadratic": (quadratic, 1e-8)})
        assert cli.main(["gradcheck", "--points", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "quadratic: max relative error nan (tolerance 1e-08) FAIL\n"
        assert "quadratic" in captured.err

    @pytest.mark.parametrize("args", [["--points", "0"], ["--points", "-3"], ["--seed", "-1"]])
    def test_bad_argument_is_config_error(self, capsys, args):
        """A point count below 1 or a negative seed exits 1 naming its
        option, before any problem is checked."""
        assert cli.main(["gradcheck", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error") and args[0] in captured.err


#: Runs a shortened ``run`` and ``sweep`` of the shipped configs and a
#: one-dimension ``scaling`` through ``cli.main`` in a fresh interpreter, then
#: prints which of the modules a training process has no use for it loaded.
FOOTPRINT_SCRIPT = """
import sys
from sofim import cli
configs, out = sys.argv[1:]
for argv in (["run", f"{configs}/blobs_logistic_sofim.yaml", "--set", "iterations=50"],
             ["sweep", f"{configs}/blobs_mlp_sofim_sweep.yaml", "--set", "iterations=50"],
             ["scaling", f"{configs}/scaling.yaml", "--set", "dims=[1000]",
              "--set", "repeats=2"]):
    assert cli.main([*argv, "--set", f"output_dir={out}"]) == 0, argv
print(sorted(name for name in ("numpy.ma", "statistics") if name in sys.modules))
"""


class TestFootprint:
    def test_training_imports_neither_numpy_ma_nor_statistics(self, tmp_path):
        """A fresh process that runs, sweeps and probes never imports
        ``numpy.ma`` (about 1.2 MB resident) or ``statistics`` (about
        0.6 MB); nothing it does needs them."""
        done = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, str(REPO / "configs"), str(tmp_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
