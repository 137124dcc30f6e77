"""Experiment harness: config validation, run determinism, divergence
handling, sweep selection, epoch accounting and the CSV contract.
"""

import csv
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from sofim import harness, problems
from sofim.core import SofimOptimizer
from sofim.exceptions import ConfigError, ScaleCapError, convert
from sofim.harness import (
    CSV_COLUMNS,
    DIVERGENCE_LOSS,
    SCALING_ROUNDS,
    ExperimentConfig,
    RunRecord,
    grid,
    run_experiment,
    scaling_probe,
    sweep,
)

QUADRATIC = {"kind": "quadratic", "dim": 10, "condition_number": 10.0, "seed": 0}
BLOBS_LOGISTIC = {"kind": "blobs", "n": 300, "p": 8, "classes": 2,
                  "spread": 3.0, "seed": 0, "model": "logistic"}


def quick_config(**overrides):
    base = dict(
        problem=BLOBS_LOGISTIC,
        optimizer="sofim",
        optimizer_params={"eta": 0.1, "rho": 0.5, "beta": 0.9},
        batch_size=32,
        total_iterations=60,
        eval_every=20,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid_roundtrip(self):
        """Rebuilding from to_dict is the identity and the hash is stable."""
        cfg = quick_config()
        again = ExperimentConfig(**cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_hash_tracks_content(self):
        """Any field change changes the hash."""
        cfg = quick_config()
        assert quick_config(seed=2).config_hash() != cfg.config_hash()
        assert quick_config(batch_size=64).config_hash() != cfg.config_hash()

    def test_stores_the_coerced_given_values(self):
        """The integer fields, problem spec, hyperparameters and loss
        thresholds are kept coerced and without defaults, so two spellings
        of one number give one config and one hash."""
        ints = quick_config(problem={**BLOBS_LOGISTIC, "spread": 3},
                            optimizer_params={"eta": 1, "rho": 1}, loss_thresholds=[1])
        floats = quick_config(problem={**BLOBS_LOGISTIC, "n": 300.0},
                              optimizer_params={"eta": 1.0, "rho": 1.0}, loss_thresholds=(1.0,),
                              batch_size=32.0, total_iterations=60.0, eval_every=20.0, seed=1.0)
        assert ints == floats and ints.config_hash() == floats.config_hash()
        assert all(type(floats.to_dict()[key]) is int
                   for key in ("batch_size", "total_iterations", "eval_every", "seed"))
        assert ints.optimizer_params == {"eta": 1.0, "rho": 1.0}
        assert ints.problem == BLOBS_LOGISTIC and ints.loss_thresholds == (1.0,)
        coerced = [ints.optimizer_params["rho"], ints.problem["spread"], floats.problem["n"],
                   ints.loss_thresholds[0]]
        assert [type(value) for value in coerced] == [float, float, int, float]
        assert quick_config(problem={"kind": "quadratic"}).problem == {"kind": "quadratic"}

    def test_malformed_problem_spec_refused_at_config_time(self):
        """The problem spec is checked when the config is built, not when
        the problem is."""
        with pytest.raises(ConfigError, match="problem key 'n' must be an integer"):
            quick_config(problem={**BLOBS_LOGISTIC, "n": 6.5})
        with pytest.raises(ConfigError, match="unknown model 'tree'"):
            quick_config(problem={**BLOBS_LOGISTIC, "model": "tree"})

    @pytest.mark.parametrize("field,value,key", [
        ("batch_size", "32", "'batch_size'"), ("total_iterations", 6.5, "'iterations'"),
        ("eval_every", True, "'eval_every'"), ("seed", None, "'seed'")])
    def test_malformed_integer_field_names_its_run_file_key(self, field, value, key):
        """An integer field that does not convert raises ConfigError naming
        the key a run file gives it, not TypeError."""
        with pytest.raises(ConfigError, match=f"config key {key} must be an integer"):
            quick_config(**{field: value})

    def test_zero_iterations_rejected(self):
        """total_iterations=0 violates the contract."""
        with pytest.raises(ConfigError):
            quick_config(total_iterations=0)

    def test_eval_every_bounded(self):
        """eval_every must lie in [1, total_iterations]."""
        with pytest.raises(ConfigError):
            quick_config(eval_every=0)
        with pytest.raises(ConfigError):
            quick_config(total_iterations=10, eval_every=11)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ConfigError, match="lbfgs"):
            quick_config(optimizer="lbfgs")

    def test_unknown_hyperparameter_named(self):
        """A typoed hyperparameter is rejected with its name, by the dense
        oracles too."""
        with pytest.raises(ConfigError, match="lr"):
            quick_config(optimizer_params={"lr": 0.1})
        with pytest.raises(ConfigError, match="bogus"):
            quick_config(optimizer="ngd_oracle", optimizer_params={"bogus": 1})
        with pytest.raises(ConfigError, match="damping"):
            quick_config(problem=QUADRATIC, optimizer="newton_oracle",
                         optimizer_params={"damping": 0.1})

    def test_nonpositive_rho_rejected_at_config_time(self):
        """rho <= 0 fails at construction, before any run starts; so do the
        dense oracles' eta <= 0 and damping <= 0."""
        with pytest.raises(ConfigError, match="rho"):
            quick_config(optimizer_params={"eta": 0.1, "rho": 0.0})
        with pytest.raises(ConfigError, match="rho"):
            quick_config(optimizer_params={"eta": 0.1, "rho": -0.5})
        with pytest.raises(ConfigError, match="eta"):
            quick_config(optimizer="ngd_oracle", optimizer_params={"eta": -1.0})
        with pytest.raises(ConfigError, match="damping"):
            quick_config(optimizer="ngd_oracle", optimizer_params={"damping": 0.0})
        with pytest.raises(ConfigError, match="eta"):
            quick_config(problem=QUADRATIC, optimizer="newton_oracle",
                         optimizer_params={"eta": 0.0})

    @pytest.mark.parametrize("kind,value", [
        (float, True), (int, False), (int, 6.5), (int, "6.5"), (int, math.inf), (float, "x"),
        (float, math.nan), (float, -math.inf), (float, "inf"), (int, "64"), (float, "0.5"),
    ])
    def test_convert_refuses_booleans_and_fractions(self, kind, value):
        """A boolean is no number, nor is a quoted number; a fraction is no
        integer and a NaN or infinity no finite number; the error names the
        key."""
        with pytest.raises(ConfigError, match="'key' must be"):
            convert(kind, value, "'key'")

    def test_convert_keeps_integral_and_numeric_values(self):
        assert convert(int, 6.0, "k") == 6 and type(convert(int, 6.0, "k")) is int
        assert convert(float, 2, "k") == 2.0 and type(convert(float, 2, "k")) is float
        assert convert(str, "64", "k") == "64"


class TestRunExperiment:
    def test_single_iteration_single_row(self):
        """total_iterations = eval_every = 1 yields exactly one metric row."""
        record = run_experiment(quick_config(total_iterations=1, eval_every=1))
        assert len(record.rows) == 1
        assert record.rows[0][0] == 1

    def test_deterministic_given_config(self):
        """Two runs of one config agree except for the wall-time column."""
        cfg = quick_config()
        a, b = run_experiment(cfg), run_experiment(cfg)
        strip = lambda rec: [row[:-1] for row in rec.rows]
        assert strip(a) == strip(b)
        assert a.diverged == b.diverged

    def test_row_invariants(self):
        """Iterations increase, wall time is nondecreasing, accuracy in [0,1]."""
        record = run_experiment(quick_config())
        column = dict(zip(CSV_COLUMNS, np.array(record.rows).T))
        iters, wall, acc = column["iteration"], column["wall_ms"], column["test_accuracy"]
        assert np.all(np.diff(iters) > 0)
        assert np.all(np.diff(wall) >= 0)
        assert np.all((acc >= 0) & (acc <= 1))

    def test_epoch_accounting(self):
        """Epoch column is floor(iteration * batch_size / train_size)."""
        cfg = quick_config(batch_size=32, total_iterations=40, eval_every=5)
        record = run_experiment(cfg)
        n_train = 240  # 80% of 300
        for row in record.rows:
            assert row[1] == (row[0] * 32) // n_train

    def test_one_forward_pass_per_training_step(self):
        """T iterations with one eval point run the model forward T times on
        a batch, then once each for the full-train loss, the test accuracy
        and the test loss."""
        cfg = quick_config(problem={**BLOBS_LOGISTIC, "model": "mlp", "hidden": 4},
                           total_iterations=7, eval_every=7)
        problem = problems.problem_from_spec(cfg.problem)
        sizes, forward = [], problem._forward

        def counted(w, x):
            sizes.append(x.shape[0])
            return forward(w, x)

        problem._forward = counted
        run_experiment(cfg, problem=problem)
        n_train, n_test = problem.n_train, problem.n_test
        assert sizes[:7] == [cfg.batch_size] * 7
        assert sorted(sizes[7:]) == sorted([n_train, n_test, n_test])

    def test_batch_size_clipped_to_train_size(self):
        """batch_size above the train size degrades to full-batch epochs."""
        cfg = quick_config(batch_size=10_000, total_iterations=4, eval_every=1)
        record = run_experiment(cfg)
        assert [row[1] for row in record.rows] == [1, 2, 3, 4]

    def test_quadratic_has_nan_accuracy(self):
        """Problems without classes record NaN in the accuracy column."""
        cfg = quick_config(problem=QUADRATIC, batch_size=1,
                           total_iterations=10, eval_every=5)
        record = run_experiment(cfg)
        assert all(math.isnan(row[5]) for row in record.rows)
        assert math.isnan(record.final_test_accuracy)

    def test_divergence_flag_and_no_poisoned_rows(self):
        """An exploding run ends early, flagged, with only finite rows."""
        cfg = quick_config(
            problem={"kind": "quadratic", "dim": 10,
                     "condition_number": 100.0, "seed": 0},
            optimizer="sgd_momentum",
            optimizer_params={"eta": 10.0, "momentum": 0.9},
            batch_size=1, total_iterations=200, eval_every=1,
        )
        record = run_experiment(cfg)
        assert record.diverged
        assert record.diverged_at is not None
        for row in record.rows:
            assert all(math.isfinite(v) for v in row[:5])
            assert row[3] <= DIVERGENCE_LOSS

    def test_reference_accuracy_on_separable_blobs(self):
        """The O(d) optimizer fits separable blobs to >= 0.95 test accuracy."""
        cfg = ExperimentConfig(
            problem={"kind": "blobs", "n": 2000, "p": 20, "classes": 2,
                     "spread": 3.0, "seed": 0, "model": "logistic"},
            optimizer="sofim",
            optimizer_params={"eta": 0.1, "rho": 0.5, "beta": 0.9},
            batch_size=64, total_iterations=500, eval_every=100, seed=0,
        )
        record = run_experiment(cfg)
        assert not record.diverged
        assert record.final_test_accuracy >= 0.95

    def test_newton_oracle_solves_quadratic_in_one_step(self):
        """The Newton oracle hits the minimizer after its first iteration."""
        cfg = ExperimentConfig(
            problem=QUADRATIC, optimizer="newton_oracle",
            optimizer_params={"eta": 1.0},
            batch_size=1, total_iterations=2, eval_every=1, seed=0,
        )
        record = run_experiment(cfg)
        assert record.rows[0][3] <= 1e-18

    def test_ngd_oracle_improves_logistic_loss(self):
        """The dense NGD oracle decreases the train loss."""
        cfg = ExperimentConfig(
            problem=BLOBS_LOGISTIC, optimizer="ngd_oracle",
            optimizer_params={"eta": 0.5, "damping": 0.1},
            batch_size=32, total_iterations=30, eval_every=30, seed=0,
        )
        record = run_experiment(cfg)
        assert record.final_train_loss < math.log(2.0)

    def test_thresholds_reported(self):
        """iterations_to_threshold finds the first qualifying eval row."""
        cfg = quick_config(total_iterations=200, eval_every=10,
                           loss_thresholds=(0.2, 1e-9))
        record = run_experiment(cfg)
        hit = record.iterations_to_threshold(0.2)
        assert hit is not None and hit % 10 == 0
        assert record.iterations_to_threshold(1e-9) is None
        summary = record.summary()
        assert summary["iterations_to_train_loss_0.2"] == hit
        assert summary["iterations_to_train_loss_1e-09"] is None


class TestSweep:
    def test_singleton_grid(self):
        """A one-point grid selects that point."""
        result = sweep([quick_config()])
        assert result.best_index == 0
        cfg, record = result.best
        assert cfg == quick_config()
        assert not record.diverged

    def test_diverged_points_excluded(self):
        """A diverging point loses to a stable one."""
        stiff = {"kind": "quadratic", "dim": 10, "condition_number": 100.0, "seed": 0}
        diverging = ExperimentConfig(
            problem=stiff, optimizer="sgd_momentum",
            optimizer_params={"eta": 10.0, "momentum": 0.9},
            batch_size=1, total_iterations=100, eval_every=10, seed=0,
        )
        stable = replace(diverging, optimizer_params={"eta": 0.01, "momentum": 0.9})
        result = sweep([diverging, stable])
        assert result.best_index == 1
        assert result.records[0].diverged

    def test_all_diverged_flags_no_best(self):
        """If every point diverges there is no best point."""
        stiff = {"kind": "quadratic", "dim": 10, "condition_number": 100.0, "seed": 0}
        bad = ExperimentConfig(
            problem=stiff, optimizer="sgd_momentum",
            optimizer_params={"eta": 50.0, "momentum": 0.9},
            batch_size=1, total_iterations=50, eval_every=10, seed=0,
        )
        result = sweep([bad, replace(bad, optimizer_params={"eta": 99.0, "momentum": 0.9})])
        assert result.best_index is None
        assert result.best is None

    def test_selection_prefers_accuracy_then_losses(self):
        """Selection is lexicographic on (accuracy, test loss, train loss)."""
        grid = [
            quick_config(optimizer_params={"eta": eta, "rho": 0.5})
            for eta in (0.1, 1e-4)
        ]
        result = sweep(grid)
        best = result.records[result.best_index]
        for i, rec in enumerate(result.records):
            if i == result.best_index or rec.diverged:
                continue
            assert (best.final_test_accuracy, -best.final_test_loss) >= (
                rec.final_test_accuracy, -rec.final_test_loss
            )

    def test_mixed_problems_rejected(self):
        """All sweep points must target one problem."""
        with pytest.raises(ConfigError):
            sweep([quick_config(), quick_config(problem=QUADRATIC, batch_size=1)])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep([])


class TestGrid:
    def test_product_of_the_axes(self):
        """One config per combination, the last axis varying fastest, each
        the base config with those hyperparameters set."""
        base = quick_config()
        assert grid(base, {"eta": [0.1, 0.01], "rho": [1.0, 0.5, 0.1]}) == [
            replace(base, optimizer_params={**base.optimizer_params, "eta": eta, "rho": rho})
            for eta in (0.1, 0.01) for rho in (1.0, 0.5, 0.1)]

    @pytest.mark.parametrize("axes,named", [
        ({}, "'grid'"), ([0.1], "'grid'"), ({"eta": []}, "'eta'"), ({"eta": 0.1}, "'eta'"),
        ({"eta": [0.1], "rho": []}, "'rho'"),
    ], ids=["empty", "list", "empty-entry", "scalar-entry", "second-entry-empty"])
    def test_malformed_axes_refused(self, axes, named):
        """Anything but a non-empty mapping of non-empty lists is a
        ConfigError naming the grid or the bad entry."""
        with pytest.raises(ConfigError, match=named):
            grid(quick_config(), axes)

    @pytest.mark.parametrize("axes,named", [
        ({"eta": [0.1, 0.1]}, "'eta'"), ({"rho": [1, 1.0]}, "'rho'"),
        ({"eta": [0.1], "rho": [0.5, 1, 1.0]}, "'rho'"),
    ], ids=["same-spelling", "int-and-float", "second-entry"])
    def test_repeated_value_refused(self, axes, named):
        """An entry that lists one value twice, once coerced, would train
        one point twice under one stem; it is refused by name."""
        with pytest.raises(ConfigError, match=f"grid entry {named} lists a value more than once"):
            grid(quick_config(), axes)


class TestRhoSweep:
    def test_runs_each_rho(self):
        """The damping study is a rho grid: one record per rho, best chosen
        by the selection rule."""
        result = sweep(grid(quick_config(), {"rho": [1.0, 0.5, 0.1]}))
        assert len(result.records) == 3
        rhos = [cfg.optimizer_params["rho"] for cfg in result.configs]
        assert rhos == [1.0, 0.5, 0.1]
        assert result.best_index is not None

    def test_requires_sofim(self):
        """rho is a sofim hyperparameter; a rho grid for another optimizer
        is refused naming it."""
        cfg = quick_config(optimizer="adam", optimizer_params={"eta": 0.001})
        with pytest.raises(ConfigError, match=r"unknown hyperparameter\(s\) \['rho'\]"):
            grid(cfg, {"rho": [0.5]})


class TestScalingProbe:
    def test_reports_each_dimension(self):
        """One (d, seconds) row per requested dimension, times positive."""
        rows = scaling_probe("sofim", [128, 256, 512], repeats=3)
        assert [d for d, _ in rows] == [128, 256, 512]
        assert all(t > 0 for _, t in rows)

    def test_each_dimension_takes_repeats_timed_steps(self, monkeypatch):
        """Interleaved rounds still time exactly ``repeats`` steps per
        dimension, after 3 warm-up steps, whether or not ``repeats`` is a
        multiple of the round count."""
        calls = {}
        step = SofimOptimizer.step

        def counted(self, w, g):
            calls[w.shape[0]] = calls.get(w.shape[0], 0) + 1
            step(self, w, g)

        monkeypatch.setattr(SofimOptimizer, "step", counted)
        for repeats in (1, SCALING_ROUNDS + 2):
            calls.clear()
            scaling_probe("sofim", [16, 32], repeats=repeats)
            assert calls == {16: 3 + repeats, 32: 3 + repeats}

    def test_round_median_is_statistics_median(self):
        """The probe's round median is ``statistics.median``'s, bitwise and
        as a Python float, for odd and even counts, ties included."""
        rng = np.random.default_rng(4)
        for count in range(1, 12):
            for times in (rng.exponential(1e-4, count).tolist(),
                          rng.integers(1, 4, count).astype(float).tolist()):
                got = harness._median(times)
                assert type(got) is float and got == statistics.median(times)

    def test_gradient_only_optimizers_supported(self):
        """SGD and Adam probe without error."""
        assert len(scaling_probe("sgd_momentum", [64], repeats=2)) == 1
        assert len(scaling_probe("adam", [64], repeats=2)) == 1

    def test_dense_oracles_refuse_large_d(self):
        """Oracles above the dense cap raise ScaleCapError."""
        with pytest.raises(ScaleCapError):
            scaling_probe("ngd_oracle", [1000], repeats=1)
        with pytest.raises(ScaleCapError):
            scaling_probe("newton_oracle", [1000], repeats=1)

    def test_dense_oracles_run_below_cap(self):
        """Oracles work at small d (that is their whole point)."""
        assert len(scaling_probe("ngd_oracle", [50], repeats=1)) == 1
        assert len(scaling_probe("newton_oracle", [50], repeats=1)) == 1

    def test_bad_input_rejected(self):
        with pytest.raises(ConfigError):
            scaling_probe("sofim", [0], repeats=1)
        with pytest.raises(ConfigError, match="dims lists a dimension more than once"):
            scaling_probe("sofim", [10, 10.0], repeats=1)
        with pytest.raises(ConfigError):
            scaling_probe("sprint", [10], repeats=1)
        with pytest.raises(ConfigError):
            scaling_probe("sofim", [10], repeats=0)
        with pytest.raises(ConfigError, match="bogus"):
            scaling_probe("ngd_oracle", [20], repeats=1, optimizer_params={"bogus": 1})
        with pytest.raises(ConfigError, match="damping"):
            scaling_probe("newton_oracle", [20], repeats=1, optimizer_params={"damping": -1})
        with pytest.raises(ConfigError, match="eta"):
            scaling_probe("newton_oracle", [20], repeats=1, optimizer_params={"eta": -1})


class TestCsvContract:
    def test_exact_columns(self, tmp_path):
        """The CSV header is exactly the documented column tuple."""
        record = run_experiment(quick_config())
        path = tmp_path / "run.csv"
        record.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(record.rows)

    def test_csv_round_trips_values(self, tmp_path):
        """Floats are written with full repr precision."""
        record = run_experiment(quick_config())
        path = tmp_path / "run.csv"
        record.write_csv(path)
        with open(path, newline="") as fh:
            next(fh)
            first = next(fh).strip().split(",")
        assert float(first[3]) == record.rows[0][3]

    def test_output_stem_naming(self):
        """File stem is <problem>_<optimizer>_<config-hash>."""
        cfg = quick_config()
        record = run_experiment(cfg)
        assert record.output_stem() == f"logistic9_sofim_{cfg.config_hash()}"

    def test_summary_file_keys(self, tmp_path):
        """The summary file is key=value lines including divergence state."""
        record = run_experiment(quick_config())
        path = tmp_path / "summary.txt"
        record.write_summary(path)
        text = path.read_text()
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert lines["diverged"] == "False"
        assert lines["optimizer"] == "sofim"
        assert float(lines["final_train_loss"]) == record.final_train_loss

    def test_empty_record_yields_nan_summary(self):
        """A record with no rows reports NaN finals instead of crashing."""
        record = RunRecord(config=quick_config(), problem_name="x", rows=[])
        assert math.isnan(record.final_train_loss)
        assert record.summary()["final_iteration"] == 0
