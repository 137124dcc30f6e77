"""Experiment harness: config validation, run determinism, divergence
handling, sweep selection, epoch accounting and the CSV contract.
"""

import csv
import math
import re
import statistics
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from sofim import harness, problems
from sofim import exceptions
from sofim.baselines import AdamConfig, SgdConfig
from sofim.core import SofimConfig, SofimOptimizer
from sofim.exceptions import ConfigError, convert
from sofim.harness import (
    CSV_COLUMNS,
    DIVERGENCE_LOSS,
    SCALING_ROUNDS,
    ExperimentConfig,
    Row,
    RunRecord,
    ScalingConfig,
    SweepResult,
    grid,
    run_experiment,
    scaling_probe,
    sweep,
    write_scaling_csv,
)

QUADRATIC = {"kind": "quadratic", "dim": 10, "condition_number": 10.0, "seed": 0}
BLOBS_LOGISTIC = {"kind": "blobs", "n": 300, "p": 8, "classes": 2,
                  "spread": 3.0, "seed": 0, "model": "logistic"}


#: Each config dataclass, the noun its refusals name a field by, and the
#: arguments it needs besides.
CONFIG_CLASSES = {
    SofimConfig: ("hyperparameter", {}),
    SgdConfig: ("hyperparameter", {}),
    AdamConfig: ("hyperparameter", {}),
    ExperimentConfig: ("config key", {"problem": QUADRATIC, "optimizer": "sofim"}),
    ScalingConfig: ("config key", {}),
}
#: The fields that hold a collection, checked by their own class.
COLLECTION_FIELDS = {"problem", "hyperparameters", "loss_thresholds", "optimizers", "dims"}
#: The values a field of each annotation refuses.
NOT_OF_TYPE = {
    "float": (True, "0.1", None, math.inf, math.nan),
    "int": (True, "5", None, 2.5, 2**63),
    "int | None": (False, "5", 2.5, 2**63),
    "str": (True, 5, None, ["x"]),
}


def refusals_by_field():
    for cls, (noun, needs) in CONFIG_CLASSES.items():
        for f in fields(cls):
            for value in NOT_OF_TYPE.get(f.type, ()):
                yield pytest.param(cls, {**needs, f.name: value}, f"{noun} {f.name!r}",
                                   id=f"{cls.__name__}-{f.name}={value!r}")


def quick_config(**overrides):
    base = dict(
        problem=BLOBS_LOGISTIC,
        optimizer="sofim",
        hyperparameters={"eta": 0.1, "rho": 0.5, "beta": 0.9},
        batch_size=32,
        iterations=60,
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
                            hyperparameters={"eta": 1, "rho": 1}, loss_thresholds=[1])
        floats = quick_config(problem={**BLOBS_LOGISTIC, "n": 300.0},
                              hyperparameters={"eta": 1.0, "rho": 1.0}, loss_thresholds=(1.0,),
                              batch_size=32.0, iterations=60.0, eval_every=20.0, seed=1.0)
        assert ints == floats and ints.config_hash() == floats.config_hash()
        assert all(type(floats.to_dict()[key]) is int
                   for key in ("batch_size", "iterations", "eval_every", "seed"))
        assert ints.hyperparameters == {"eta": 1.0, "rho": 1.0}
        assert ints.problem == BLOBS_LOGISTIC and ints.loss_thresholds == (1.0,)
        coerced = [ints.hyperparameters["rho"], ints.problem["spread"], floats.problem["n"],
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
        ("batch_size", "32", "'batch_size'"), ("iterations", 6.5, "'iterations'"),
        ("eval_every", True, "'eval_every'"), ("seed", None, "'seed'")])
    def test_malformed_integer_field_names_its_run_file_key(self, field, value, key):
        """An integer field that does not convert raises ConfigError naming
        the key a run file gives it, not TypeError."""
        with pytest.raises(ConfigError, match=f"config key {key} must be an integer"):
            quick_config(**{field: value})

    def test_zero_iterations_rejected(self):
        """iterations=0 violates the contract; the error names the
        run-file key."""
        with pytest.raises(ConfigError, match="config key 'iterations' must be >= 1"):
            quick_config(iterations=0)

    def test_eval_every_bounded(self):
        """eval_every must lie in [1, iterations], which the error
        names by their run-file keys."""
        bounded = r"config key 'eval_every' must lie in \[1, 'iterations'\]"
        with pytest.raises(ConfigError, match=bounded + ", got 0"):
            quick_config(eval_every=0)
        with pytest.raises(ConfigError, match=bounded + ", got 11"):
            quick_config(iterations=10, eval_every=11)

    def test_unknown_optimizer_rejected(self):
        """An unknown id, the removed ``newton_oracle`` and ``ngd_oracle``
        among them, is refused by a run, a sweep and a scaling config with
        a message that lists the three known ids."""
        with pytest.raises(ConfigError, match="lbfgs"):
            quick_config(optimizer="lbfgs")
        known = "('sofim', 'sgd_momentum', 'adam')"
        for removed in ("newton_oracle", "ngd_oracle"):
            for subcommand in ("run", "sweep"):
                with pytest.raises(ConfigError, match=re.escape(
                        f"unknown optimizer {removed!r}; expected one of {known}")):
                    harness.read_configs(subcommand,
                                         {"problem": BLOBS_LOGISTIC, "optimizer": removed})
            with pytest.raises(ConfigError, match=re.escape(
                    f"unknown optimizer(s) [{removed!r}]; expected ids from {known}")):
                harness.read_configs("scaling", {"optimizers": [removed]})

    def test_unknown_hyperparameter_named(self):
        """A typoed hyperparameter is rejected with its name."""
        with pytest.raises(ConfigError, match="lr"):
            quick_config(hyperparameters={"lr": 0.1})

    @pytest.mark.parametrize("optimizer,former", [
        ("sofim", {"eta": 0.1, "rho": 0.5, "beta": 0.9}),
        ("sgd_momentum", {"eta": 0.1, "momentum": 0.9, "weight_decay": 0.0,
                          "schedule": "constant", "total_steps": 60}),
        ("adam", {"eta": 0.001, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}),
    ])
    def test_omitted_hyperparameters_keep_their_former_defaults(self, optimizer, former):
        """A config that gives no hyperparameters builds its stepper from the
        dataclass's defaults, the values the harness has always run with,
        written out here as literals; the config keeps none of them."""
        _, built, given = harness._hyperparameters(optimizer, {}, 60)
        assert asdict(built) == former and given == {}

    def test_nonpositive_rho_rejected_at_config_time(self):
        """rho <= 0 fails at construction, before any run starts."""
        with pytest.raises(ConfigError, match="rho"):
            quick_config(hyperparameters={"eta": 0.1, "rho": 0.0})
        with pytest.raises(ConfigError, match="rho"):
            quick_config(hyperparameters={"eta": 0.1, "rho": -0.5})

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

    @pytest.mark.parametrize("cls,kwargs,name", [
        *refusals_by_field(),
        pytest.param(SgdConfig, {"schedule": "cosine", "total_steps": 2.5},
                     "hyperparameter 'total_steps'", id="SgdConfig-cosine-total_steps=2.5"),
    ])
    def test_each_config_converts_its_fields(self, cls, kwargs, name):
        """Each config dataclass, built from Python as from a file, refuses a
        value not of its field's type, naming the field: a boolean, a quoted
        number, ``None`` where ``None`` is not the default, a fraction or an
        integer outside int64 for an integer, a NaN or infinity for a float,
        and a non-string for a string."""
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
            cls(**kwargs)

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_field_is_converted_or_a_collection(self, cls):
        """Every config field's annotation is one the conversion knows, or
        the field holds a collection its class checks itself: a field of
        another annotation, or one of a module without ``from __future__
        import annotations``, would escape the conversion."""
        for f in fields(cls):
            assert f.type in exceptions.CONVERTED or f.name in COLLECTION_FIELDS, (f.name, f.type)

    def test_config_keeps_an_int_or_none_field_left_at_none(self):
        assert SgdConfig(total_steps=None).total_steps is None
        assert type(SgdConfig(total_steps=5.0).total_steps) is int

    def test_convert_takes_exactly_the_int64_range(self):
        """An integer is taken in [-2**63, 2**63), numpy's int64, and refused
        outside it, naming the key."""
        assert convert(int, 2**63 - 1, "k") == 2**63 - 1 and convert(int, -2**63, "k") == -2**63
        for value in (2**63, -2**63 - 1, 99999999999999999999, 1.0e20):
            with pytest.raises(ConfigError, match=r"^'key' must lie in \[-2\*\*63, 2\*\*63\)"):
                convert(int, value, "'key'")

    def test_convert_keeps_integral_and_numeric_values(self):
        assert convert(int, 6.0, "k") == 6 and type(convert(int, 6.0, "k")) is int
        assert convert(float, 2, "k") == 2.0 and type(convert(float, 2, "k")) is float
        assert convert(str, "64", "k") == "64"


class TestRunExperiment:
    def test_single_iteration_single_row(self):
        """iterations = eval_every = 1 yields exactly one metric row."""
        record = run_experiment(quick_config(iterations=1, eval_every=1))
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
        cfg = quick_config(batch_size=32, iterations=40, eval_every=5)
        record = run_experiment(cfg)
        n_train = 240  # 80% of 300
        for row in record.rows:
            assert row[1] == (row[0] * 32) // n_train

    def test_one_forward_pass_per_training_step(self):
        """T iterations with one eval point run the model forward T times on
        a batch, then once each for the full-train loss, the test accuracy
        and the test loss."""
        cfg = quick_config(problem={**BLOBS_LOGISTIC, "model": "mlp", "hidden": 4},
                           iterations=7, eval_every=7)
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
        cfg = quick_config(batch_size=10_000, iterations=4, eval_every=1)
        record = run_experiment(cfg)
        assert [row[1] for row in record.rows] == [1, 2, 3, 4]

    def test_quadratic_has_nan_accuracy(self):
        """Problems without classes record NaN in the accuracy column."""
        cfg = quick_config(problem=QUADRATIC, batch_size=1,
                           iterations=10, eval_every=5)
        record = run_experiment(cfg)
        assert all(math.isnan(row[5]) for row in record.rows)
        assert math.isnan(record.final.test_accuracy)

    def test_divergence_flag_and_no_poisoned_rows(self):
        """An exploding run ends early, flagged, with only finite rows."""
        cfg = quick_config(
            problem={"kind": "quadratic", "dim": 10,
                     "condition_number": 100.0, "seed": 0},
            optimizer="sgd_momentum",
            hyperparameters={"eta": 10.0, "momentum": 0.9},
            batch_size=1, iterations=200, eval_every=1,
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
            hyperparameters={"eta": 0.1, "rho": 0.5, "beta": 0.9},
            batch_size=64, iterations=500, eval_every=100, seed=0,
        )
        record = run_experiment(cfg)
        assert not record.diverged
        assert record.final.test_accuracy >= 0.95

    def test_thresholds_reported(self):
        """iterations_to_threshold finds the first qualifying eval row."""
        cfg = quick_config(iterations=200, eval_every=10,
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
        record = result.best
        assert record.config == quick_config()
        assert not record.diverged

    def test_diverged_points_excluded(self):
        """A diverging point loses to a stable one."""
        stiff = {"kind": "quadratic", "dim": 10, "condition_number": 100.0, "seed": 0}
        diverging = ExperimentConfig(
            problem=stiff, optimizer="sgd_momentum",
            hyperparameters={"eta": 10.0, "momentum": 0.9},
            batch_size=1, iterations=100, eval_every=10, seed=0,
        )
        stable = replace(diverging, hyperparameters={"eta": 0.01, "momentum": 0.9})
        result = sweep([diverging, stable])
        assert result.best_index == 1
        assert result.records[0].diverged

    def test_all_diverged_flags_no_best(self):
        """If every point diverges there is no best point."""
        stiff = {"kind": "quadratic", "dim": 10, "condition_number": 100.0, "seed": 0}
        bad = ExperimentConfig(
            problem=stiff, optimizer="sgd_momentum",
            hyperparameters={"eta": 50.0, "momentum": 0.9},
            batch_size=1, iterations=50, eval_every=10, seed=0,
        )
        result = sweep([bad, replace(bad, hyperparameters={"eta": 99.0, "momentum": 0.9})])
        assert result.best_index is None
        assert result.best is None

    def test_selection_prefers_accuracy_then_losses(self):
        """Selection is lexicographic on (accuracy, test loss, train loss)."""
        grid = [
            quick_config(hyperparameters={"eta": eta, "rho": 0.5})
            for eta in (0.1, 1e-4)
        ]
        result = sweep(grid)
        best = result.records[result.best_index]
        for i, rec in enumerate(result.records):
            if i == result.best_index or rec.diverged:
                continue
            assert (best.final.test_accuracy, -best.final.test_loss) >= (
                rec.final.test_accuracy, -rec.final.test_loss
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
            replace(base, hyperparameters={**base.hyperparameters, "eta": eta, "rho": rho})
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
        rhos = [rec.config.hyperparameters["rho"] for rec in result.records]
        assert rhos == [1.0, 0.5, 0.1]
        assert result.best_index is not None

    def test_requires_sofim(self):
        """rho is a sofim hyperparameter; a rho grid for another optimizer
        is refused naming it."""
        cfg = quick_config(optimizer="adam", hyperparameters={"eta": 0.001})
        with pytest.raises(ConfigError, match=r"unknown hyperparameter\(s\) \['rho'\]"):
            grid(cfg, {"rho": [0.5]})


class TestScalingProbe:
    def test_reports_each_dimension(self):
        """One (d, seconds) row per requested dimension, times positive."""
        rows = scaling_probe(ScalingConfig("sofim", [128, 256, 512], repeats=3), "sofim")
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
            scaling_probe(ScalingConfig("sofim", [16, 32], repeats=repeats), "sofim")
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
        for optimizer_id in ("sgd_momentum", "adam"):
            cfg = ScalingConfig(optimizer_id, [64], repeats=2)
            assert len(scaling_probe(cfg, optimizer_id)) == 1

    def test_bad_input_rejected(self):
        with pytest.raises(ConfigError):
            ScalingConfig("sofim", [0], repeats=1)
        with pytest.raises(ConfigError,
                           match="config key 'dims' lists a dimension more than once"):
            ScalingConfig("sofim", [10, 10.0], repeats=1)
        with pytest.raises(ConfigError):
            ScalingConfig("sprint", [10], repeats=1)
        with pytest.raises(ConfigError):
            ScalingConfig("sofim", [10], repeats=0)
        with pytest.raises(ConfigError, match=re.escape(
                "unknown config key(s) for scaling: ['hyperparameters']")):
            harness.read_configs("scaling", {"hyperparameters": {"eta": 0.01}})


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
        assert float(lines["final_train_loss"]) == record.final.train_loss

    def test_empty_record_yields_nan_summary(self):
        """A record with no rows reports NaN finals instead of crashing."""
        record = RunRecord(config=quick_config(), problem_name="x", rows=[])
        assert math.isnan(record.final.train_loss)
        assert record.summary()["final_iteration"] == 0


def hand_record(eta, rows=(), thresholds=(), diverged_at=None):
    """A record built without training: ``rows`` as given, diverged at
    ``diverged_at`` if it is set."""
    cfg = quick_config(hyperparameters={"eta": eta, "rho": 0.5}, iterations=20,
                       eval_every=10, seed=0, loss_thresholds=thresholds)
    return RunRecord(cfg, "logistic8", [Row(*row) for row in rows], diverged_at)


def written(out_dir):
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(out_dir.iterdir())}


HEADER = "iteration,epoch,batch_loss,train_loss,test_loss,test_accuracy,wall_ms\n"
REACHED = hand_record(0.1, [(10, 1, 0.5, 0.1 + 0.2, 0.3, 0.875, 1.5),
                            (20, 2, 0.125, 0.1, 0.2, math.nan, 3.25)], thresholds=(0.2, 1e-9))
DIVERGED = hand_record(10.0, diverged_at=3)
REACHED_FILES = {
    "logistic8_sofim_c175a8d457.csv":
        HEADER + "10,1,0.5,0.30000000000000004,0.3,0.875,1.5\n20,2,0.125,0.1,0.2,nan,3.25\n",
    "logistic8_sofim_c175a8d457_summary.txt":
        "problem=logistic8\noptimizer=sofim\nconfig_hash=c175a8d457\ndiverged=False\n"
        "diverged_at=None\nfinal_iteration=20\nfinal_train_loss=0.1\nfinal_test_loss=0.2\n"
        "final_test_accuracy=nan\nbest_test_accuracy=0.875\niterations_to_train_loss_0.2=20\n"
        "iterations_to_train_loss_1e-09=None\n",
}
DIVERGED_FILES = {
    "logistic8_sofim_fff514d9cc.csv": HEADER,
    "logistic8_sofim_fff514d9cc_summary.txt":
        "problem=logistic8\noptimizer=sofim\nconfig_hash=fff514d9cc\ndiverged=True\n"
        "diverged_at=3\nfinal_iteration=0\nfinal_train_loss=nan\nfinal_test_loss=nan\n"
        "final_test_accuracy=nan\nbest_test_accuracy=nan\n",
}


class TestResultFormats:
    """The exact bytes of every result file, from records built by hand."""

    def test_run_files(self, tmp_path):
        """A NaN accuracy cell, full-precision floats, and one threshold
        reached and one never reached."""
        assert REACHED.write(tmp_path) == tmp_path / "logistic8_sofim_c175a8d457.csv"
        assert written(tmp_path) == REACHED_FILES

    def test_diverged_run_without_rows(self, tmp_path):
        """A header-only CSV and NaN finals at iteration 0."""
        DIVERGED.write(tmp_path / "new" / "dir")
        assert written(tmp_path / "new" / "dir") == DIVERGED_FILES

    def test_sweep_summary_with_a_diverged_point(self, tmp_path):
        lines = SweepResult([REACHED, DIVERGED], best_index=0).write(tmp_path)
        summary = (
            "point={'eta': 0.1, 'rho': 0.5} diverged=False final_train_loss=0.1 "
            "final_test_loss=0.2 final_test_accuracy=nan\n"
            "point={'eta': 10.0, 'rho': 0.5} diverged=True final_train_loss=nan "
            "final_test_loss=nan final_test_accuracy=nan\n"
            "best={'eta': 0.1, 'rho': 0.5} final_test_accuracy=nan\n")
        assert written(tmp_path) == {**REACHED_FILES, **DIVERGED_FILES,
                                     "sweep_summary.txt": summary}
        assert lines == summary.splitlines()

    def test_all_diverged_sweep_names_no_best(self, tmp_path):
        result = SweepResult([DIVERGED, hand_record(100.0, diverged_at=1)], best_index=None)
        assert result.best is None
        result.write(tmp_path)
        assert (tmp_path / "sweep_summary.txt").read_text(encoding="utf-8") == (
            "point={'eta': 10.0, 'rho': 0.5} diverged=True final_train_loss=nan "
            "final_test_loss=nan final_test_accuracy=nan\n"
            "point={'eta': 100.0, 'rho': 0.5} diverged=True final_train_loss=nan "
            "final_test_loss=nan final_test_accuracy=nan\n"
            "best=none (all points diverged)\n")

    def test_scaling_csv(self, tmp_path):
        rows = [("sofim", 1000, 1.25e-05), ("adam", 10, 1e-06 / 3)]
        assert write_scaling_csv(rows, tmp_path) == tmp_path / "scaling.csv"
        assert written(tmp_path) == {"scaling.csv": "optimizer,d,median_step_seconds\n"
                                     "sofim,1000,1.25e-05\nadam,10,3.333333333333333e-07\n"}
