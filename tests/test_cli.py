"""Command-line surface: subcommands, config-file merging, exit codes."""

import argparse
import dataclasses
import json
import shlex
import typing
from pathlib import Path

import numpy as np
import pytest

from quantforecast.cli import _experiment_config, build_parser, main
from quantforecast.datapipe import (FILE_SCHEMAS, GENERATORS, LorenzParams,
                                    gen_lorenz, load_csv)
from quantforecast.experiment import FAMILIES, STRATEGIES, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def subcommands(parser):
    """The subcommand name -> parser table of parser."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def command_actions(*command):
    """The actions of a command, given as its words (experiment, or
    generate lorenz)."""
    parser = build_parser()
    for word in command:
        parser = subcommands(parser)[word]
    return parser._actions


def command_dests(*command):
    return {a.dest for a in command_actions(*command)} - {"help"}


def experiment_choices(flag):
    return next(a.choices for a in command_actions("experiment")
                if flag in a.option_strings)


def run_file(**changes):
    """The JSON text of a one-level run report with the given fields
    changed."""
    return json.dumps(dict({"seed": 0, "quantiles": [0.5],
                            "per_horizon_rmse": [0.1, 0.2],
                            "per_quantile_rmse": [0.15], "mean_rmse": 0.15,
                            "wall_seconds": 1.0}, **changes))


# A linear campaign on a short generated series.
LINEAR = ["--family", "linear", "--dataset", "mackey-glass",
          "--data-steps", "200"]


def linear_campaign(out):
    """A 2-run classic linear campaign under out, which it returns."""
    assert main(["experiment", "--dataset", "mackey-glass", "--family",
                 "linear", "--runs", "2", "--data-steps", "200",
                 "--window", "4", "--horizons", "2", "--no-quantile",
                 "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_mackey_glass_to_csv(self, tmp_path, capsys):
        out = tmp_path / "mg.csv"
        code = main(["generate", "mackey-glass", "--steps", "120",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        series = load_csv(out, "univariate")
        assert series.length == 120
        assert "wrote 120 rows" in capsys.readouterr().out

    def test_lorenz_component(self, tmp_path):
        out = tmp_path / "lz.csv"
        assert main(["generate", "lorenz", "--steps", "80", "--component",
                     "z", "--out", str(out)]) == 0
        assert load_csv(out, "univariate").length == 80

    def test_relative_out_ignores_output_root_env(self, tmp_path,
                                                  monkeypatch):
        # QUANTFORECAST_OUT is not read: a relative --out lands under the
        # working directory
        root = tmp_path / "root"
        monkeypatch.setenv("QUANTFORECAST_OUT", str(root))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "mackey-glass", "--steps", "60",
                     "--out", "sub.csv"]) == 0
        assert (tmp_path / "sub.csv").exists()
        assert not root.exists()

    def test_unset_flags_take_generator_defaults(self, tmp_path):
        out = tmp_path / "lz.csv"
        assert main(["generate", "lorenz", "--steps", "50",
                     "--out", str(out)]) == 0
        expected = gen_lorenz(LorenzParams(steps=50), seed=0)
        assert np.array_equal(load_csv(out, "univariate").values,
                              expected.values)

    @pytest.mark.parametrize("bad", [
        ["mackey-glass", "--steps", "0"], ["mackey-glass", "--dt", "0"],
        ["lorenz", "--steps", "0"], ["lorenz", "--dt", "0"],
        ["mackey-glass", "--seed", "-1"], ["mackey-glass", "--dt", "nan"],
        ["mackey-glass", "--dt", "inf"], ["mackey-glass", "--a", "nan"],
        ["lorenz", "--dt", "nan"], ["lorenz", "--rho", "inf"],
        ["lorenz", "--component", "w"]])
    def test_bad_generator_settings_exit_1(self, tmp_path, capsys, bad):
        out = tmp_path / "series.csv"
        assert main(["generate"] + bad + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["mackey-glass", "--rho", "5", "--component", "z"],
         "--rho 5 --component z"),
        (["lorenz", "--a", "0.9", "--delay", "3"], "--a 0.9 --delay 3"),
        (["lorenz", "--steps", "50", "--b", "0.1"], "--b 0.1")],
        ids=["mackey-glass", "lorenz", "lorenz-b"])
    def test_flag_of_another_generator_exit_1(self, tmp_path, capsys, flags,
                                              named):
        # each generator is a subcommand, so argparse reports the flag
        # under that generator's usage
        out = tmp_path / "series.csv"
        assert main(["generate"] + flags + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: quantforecast generate {flags[0]}")
        assert lines[-1] == (f"config error: quantforecast generate "
                             f"{flags[0]}: unrecognized arguments: {named}")
        assert captured.out == ""
        assert not out.exists()

    def test_one_flag_per_generator_setting(self):
        for name, (cls, _) in GENERATORS.items():
            assert command_dests("generate", name) == \
                set(typing.get_type_hints(cls)) | {"seed", "out"}

    @pytest.mark.parametrize("settings, series", [
        (["lorenz", "--dt", "0.5", "--steps", "2000"], "'lorenz'"),
        (["mackey-glass", "--a", "1e40"], "'mackey-glass' overflows at step")],
        ids=["lorenz", "mackey-glass"])
    def test_overflowing_series_exit_2(self, tmp_path, capsys, settings,
                                       series):
        out = tmp_path / "series.csv"
        assert main(["generate"] + settings + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert series in err
        assert not out.exists()


class TestExperimentCommand:
    def test_linear_campaign(self, tmp_path, capsys):
        code = main(["experiment", "--dataset", "mackey-glass",
                     "--family", "linear", "--runs", "2",
                     "--data-steps", "200", "--window", "4",
                     "--horizons", "2", "--no-quantile",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "2/2 runs completed" in capsys.readouterr().out
        assert (tmp_path / "aggregate.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "dataset": "mackey-glass", "family": "linear", "quantile": False,
            "runs": 1, "data_steps": 200, "window": 4, "horizons": 2,
            "output_dir": str(tmp_path / "from_file"),
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        override = tmp_path / "overridden"
        code = main(["experiment", "--config", str(path),
                     "--out", str(override)])
        assert code == 0
        assert override.exists()
        assert not (tmp_path / "from_file").exists()
        saved = json.loads((override / "config.json").read_text())
        assert saved["output_dir"] == str(override)

    def test_quoted_market_csv_loads_five_features(self, tmp_path,
                                                   monkeypatch,
                                                   quoted_market_csv):
        import quantforecast.experiment as exp

        widths = []
        original = exp.build_series
        def recorded(config):
            series = original(config)
            widths.append(series.values.shape[1])
            return series

        monkeypatch.setattr(exp, "build_series", recorded)
        code = main(["experiment", "--dataset", "csv", "--strategy",
                     "multivariate", "--csv-path", str(quoted_market_csv),
                     "--family", "linear", "--no-quantile", "--runs", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert widths == [5]

    def test_missing_required_fields_exit_1(self, capsys):
        assert main(["experiment", "--runs", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_file_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dataset": "mackey-glass",
                                    "family": "linear", "epoch": 5}))
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "epoch" in err
        assert not (tmp_path / "config.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("clip_norm", 1.0), ("clip_negative", True), ("data_stride", 2),
        ("lorenz_component", "y"), ("linear_learning_rate", 0.05),
        ("denormalized_metrics", True)])
    def test_removed_config_file_key_exit_1(self, tmp_path, capsys, key,
                                            value):
        # an old file never silently runs a campaign other than it names
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dataset": "mackey-glass",
                                    "family": "linear", key: value}))
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        ([*LINEAR, "--hidden1", "50"], "hidden1"),
        ([*LINEAR, "--epochs", "7"], "epochs"),
        ([*LINEAR, "--hidden1", "0"], "hidden1"),
        ([*LINEAR, "--batch-size", "8"], "batch_size"),
        ([*LINEAR, "--learning-rate", "0.01"], "learning_rate"),
        # the same rule for every family and dataset
        (["--family", "lstm", "--dataset", "mackey-glass",
          "--linear-iterations", "7"], "linear_iterations"),
        (["--family", "convlstm", "--dataset", "mackey-glass",
          "--hidden2", "5"], "hidden2"),
        (["--family", "linear", "--dataset", "csv", "--csv-path", "x.csv",
          "--data-seed", "3"], "data_seed"),
        (["--family", "linear", "--dataset", "mackey-glass", "--no-quantile",
          "--linear-iterations", "7"], "linear_iterations")])
    def test_neural_setting_on_linear_campaign_exit_1(self, tmp_path, capsys,
                                                      flags, named):
        out = tmp_path / "campaign"
        code = main(["experiment", "--runs", "1", "--out", str(out)] + flags)
        assert code == 1
        captured = capsys.readouterr()
        family, dataset = flags[1], flags[3]
        assert captured.err == (f"config error: family '{family}' on dataset "
                                f"'{dataset}' takes no {named}\n")
        assert captured.out == ""
        assert not out.exists()

    def test_failed_run_counted(self, tmp_path, monkeypatch, capsys):
        import quantforecast.experiment as exp

        original = exp.run_single
        def flaky(config, series, seed):
            if seed == 1:
                raise RuntimeError("synthetic failure")
            return original(config, series, seed)

        monkeypatch.setattr(exp, "run_single", flaky)
        code = main(["experiment", "--runs", "3", "--no-quantile",
                     "--window", "4", "--horizons", "2", *LINEAR,
                     "--out", str(tmp_path)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("2/3 runs completed; mean RMSE ")
        assert lines[1:] == ["1 run(s) failed; see failures.json"]
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert [f["seed"] for f in failures] == [1]

    def test_old_linear_config_file_exit_1(self, tmp_path, capsys):
        # A linear config.json written before linear campaigns stopped
        # resolving hidden sizes and epochs names all three.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": "mackey-glass", "family": "linear", "hidden1": 1,
            "hidden2": 1, "epochs": 300}))
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "takes no hidden1, hidden2, epochs" in err
        assert not out.exists()

    def test_linear_config_file_with_training_numbers_exit_1(self, tmp_path,
                                                              capsys):
        # A linear config.json written while linear campaigns still
        # resolved a batch size and learning rate holds both.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "dataset": "mackey-glass", "family": "linear", "hidden1": None,
            "hidden2": None, "epochs": None, "batch_size": 64,
            "learning_rate": 0.0001}))
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "takes no batch_size, learning_rate" in err
        assert not out.exists()

    def test_invalid_combination_exit_1(self, tmp_path, capsys):
        code = main(["experiment", "--dataset", "mackey-glass",
                     "--family", "linear", "--strategy", "multivariate",
                     "--runs", "1", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("bad", [
        ["--epochs", "0"], ["--epochs", "1", "--batch-size", "0"],
        ["--learning-rate", "0"], ["--learning-rate", "nan"],
        ["--learning-rate", "inf"], ["--quantiles", "0.5", "1.5"],
        ["--quantiles", "nan", "0.5"], ["--clip-norm", "1"],
        ["--epochs", "abc"], ["--quantile", "--no-quantile"]])
    def test_bad_training_numbers_exit_1_before_any_run(self, tmp_path,
                                                         capsys, bad):
        out = tmp_path / "campaign"
        code = main(["experiment", "--dataset", "mackey-glass",
                     "--family", "lstm", "--runs", "2",
                     "--data-steps", "100", "--out", str(out)] + bad)
        assert code == 1
        captured = capsys.readouterr()
        assert "config error:" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--dataset", "csv", "--csv-path", "f.csv", "--data-steps", "7"],
         "family 'linear' on dataset 'csv' takes no data_steps"),
        (["--dataset", "mackey-glass", "--csv-path", "/nonexistent.csv"],
         "family 'linear' on dataset 'mackey-glass' takes no csv_path"),
        # flags are spelled in full: no prefix of --learning-rate
        (["--dataset", "mackey-glass", "--learning", "0.01"],
         "unrecognized arguments: --learning 0.01")],
        ids=["data-steps", "csv-path", "abbreviated"])
    def test_dataset_setting_that_cannot_apply_exit_1(self, tmp_path, capsys,
                                                      flags, named):
        out = tmp_path / "run"
        code = main(["experiment", "--runs", "1", "--family", "linear",
                     "--out", str(out)] + flags)
        assert code == 1
        captured = capsys.readouterr()
        # argparse prints its usage line before the error for a flag that
        # experiment does not have
        error = captured.err.splitlines()[-1]
        assert error.startswith("config error:")
        assert named in error and captured.out == ""
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: quantforecast experiment")

    @pytest.mark.parametrize("bad", [
        ["--data-steps", "0"], ["--train-fraction", "1"],
        ["--data-limit", "-50"], ["--data-offset", "-60"],
        ["--data-seed", "-1"], ["--base-seed", "-1"], ["--window", "0"],
        ["--horizons", "0"], ["--hidden1", "0"], ["--workers", "0"],
        ["--quantiles", "0.1", "0.9"]])
    def test_bad_campaign_numbers_exit_1_before_any_run(self, tmp_path,
                                                        capsys, bad):
        out = tmp_path / "campaign"
        code = main(["experiment", "--dataset", "mackey-glass",
                     "--family", "lstm", "--runs", "2",
                     "--data-steps", "100", "--out", str(out)] + bad)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"dataset": "mackey-glass",',
                                      '["mackey-glass", "linear"]'])
    def test_bad_config_file_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "exp.json"
        path.write_text(text)
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_path_exit_1(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'\xff{"dataset": "mackey-glass"}')
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("window", "5"), ("quantiles", 5), ("quantile", "no"),
        ("epochs", True), ("learning_rate", "0.1"),
        ("learning_rate", float("nan"))])
    def test_mistyped_config_value_exit_1(self, tmp_path, capsys, key,
                                          value):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"dataset": "mackey-glass",
                                    "family": "linear", key: value}))
        out = tmp_path / "campaign"
        code = main(["experiment", "--config", str(path), "--runs", "1",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be")
        assert "Traceback" not in err
        assert not out.exists()

    def test_every_experiment_flag_reaches_the_config(self, tmp_path):
        # No campaign reads every field: a neural campaign on a file and a
        # linear one on a generated series cover them between them.
        out = str(tmp_path / "campaign")
        neural = dict(
            name="n", dataset="csv", csv_path="x.csv", family="lstm",
            strategy="multivariate", quantile=True, quantiles=(0.1, 0.5, 0.9),
            window=7, horizons=3, hidden1=4, hidden2=6, epochs=2,
            batch_size=8, learning_rate=0.01, base_seed=5,
            train_fraction=0.7, data_limit=300, data_offset=10, workers=2,
            output_dir=out, runs=4)
        neural_argv = [
            "--name", "n", "--dataset", "csv", "--csv-path", "x.csv",
            "--family", "lstm", "--strategy", "multivariate", "--quantile",
            "--quantiles", "0.1", "0.5", "0.9", "--window", "7",
            "--horizons", "3", "--hidden1", "4", "--hidden2", "6",
            "--epochs", "2", "--batch-size", "8", "--learning-rate", "0.01",
            "--base-seed", "5", "--train-fraction", "0.7",
            "--data-limit", "300", "--data-offset", "10", "--workers", "2",
            "--out", out, "--runs", "4"]
        linear = dict(dataset="mackey-glass", family="linear", data_seed=9,
                      data_steps=400, linear_iterations=7)
        linear_argv = ["--dataset", "mackey-glass", "--family", "linear",
                       "--data-seed", "9", "--data-steps", "400",
                       "--linear-iterations", "7"]
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert command_dests("experiment") - {"config"} == names
        assert set(neural) | set(linear) == names
        for expected, argv in ((neural, neural_argv), (linear, linear_argv)):
            config = _experiment_config(
                build_parser().parse_args(["experiment", *argv]))
            for key, value in expected.items():
                assert getattr(config, key) == value, key

    def test_choices_come_from_the_library(self):
        assert experiment_choices("--dataset") == (*GENERATORS,
                                                   *FILE_SCHEMAS)
        assert experiment_choices("--dataset") == (
            "mackey-glass", "lorenz", "bitcoin", "ethereum", "sunspot", "csv")
        # each generator is a generate subcommand
        assert tuple(subcommands(subcommands(build_parser())["generate"])) \
            == tuple(GENERATORS)
        assert experiment_choices("--strategy") == STRATEGIES
        assert experiment_choices("--family") == FAMILIES

    def test_missing_csv_file_exit_2(self, tmp_path, capsys):
        # the data loads before the campaign directory is made
        out = tmp_path / "campaign"
        code = main(["experiment", "--dataset", "bitcoin",
                     "--family", "linear", "--runs", "1",
                     "--csv-path", str(tmp_path / "absent.csv"),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, usage", [
        (["experiment", "--learning", "0.01"], "quantforecast experiment"),
        (["generate", "mackey-glass", "--rho", "5", "--out", "mg.csv"],
         "quantforecast generate mackey-glass")],
        ids=["experiment", "generate"])
    def test_unknown_flag_shows_its_command_usage(self, tmp_path,
                                                  monkeypatch, capsys, argv,
                                                  usage):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0].startswith(f"usage: {usage}")
        assert "unrecognized arguments:" in captured.err.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    def test_multivariate_on_one_column_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "value.csv"
        path.write_text("Date,Value\n" + "".join(f"{i},{i % 7}.5\n"
                                                  for i in range(40)))
        out = tmp_path / "campaign"
        code = main(["experiment", "--dataset", "csv", "--strategy",
                     "multivariate", "--csv-path", str(path),
                     "--family", "linear", "--runs", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert ("missing columns ['high', 'low', 'open', 'close', 'volume']"
                in err)
        assert not list(out.glob("runs/run_*.json"))
        assert not (out / "aggregate.csv").exists()

    def test_short_csv_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("Date,Value\n3\n")
        code = main(["experiment", "--dataset", "sunspot",
                     "--family", "linear", "--runs", "1",
                     "--csv-path", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(row 2)" in err
        assert "Traceback" not in err


class TestTrainCommand:
    """Single-run campaigns: experiment --runs 1."""

    def test_single_run(self, tmp_path, capsys):
        code = main(["experiment", "--runs", "1", "--dataset", "mackey-glass",
                     "--family", "linear", "--data-steps", "200",
                     "--window", "4", "--horizons", "2",
                     "--base-seed", "3", "--out", str(tmp_path)])
        assert code == 0
        assert "1/1 runs completed" in capsys.readouterr().out
        assert (tmp_path / "runs" / "run_3.json").exists()

    def test_neural_run_records_training_defaults(self, tmp_path):
        code = main(["experiment", "--runs", "1", "--dataset", "mackey-glass",
                     "--family", "lstm", "--data-steps", "60",
                     "--window", "4", "--horizons", "2",
                     "--hidden1", "2", "--hidden2", "2", "--epochs", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        config = json.loads((tmp_path / "config.json").read_text())
        assert (config["batch_size"], config["learning_rate"]) == (64, 1e-4)
        assert config["linear_iterations"] is None


class TestReportCommand:
    def test_reaggregation_reproduces_campaign_tables(self, tmp_path):
        campaign = linear_campaign(tmp_path / "campaign")
        # A config written before a field was removed still labels its runs.
        config = json.loads((campaign / "config.json").read_text())
        config["clip_norm"] = 1.0
        (campaign / "config.json").write_text(json.dumps(config))
        again = tmp_path / "tables"
        code = main(["report", "--runs-dir", str(campaign / "runs"),
                     "--out", str(again)])
        assert code == 0
        for name in ("aggregate.csv", "table.csv", "per_horizon_rmse.csv"):
            assert (again / name).read_bytes() == \
                (campaign / name).read_bytes(), name

    def test_empty_dir_exit_1(self, tmp_path):
        assert main(["report", "--runs-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text", [
        '{"seed": 0, "quan', '{"seed": 0}',
        pytest.param(run_file(per_horizon_rmse=["x", "y"], mean_rmse="x"),
                     id="string-rmse"),
        pytest.param(run_file(quantiles=[0.5, 0.9]), id="quantile-count"),
        pytest.param(run_file(per_horizon_rmse=0.1), id="scalar-rmse"),
        pytest.param(run_file(seed="0"), id="string-seed")])
    def test_bad_run_file_exit_2(self, tmp_path, capsys, text):
        runs = tmp_path / "runs"
        runs.mkdir()
        path = runs / "run_0.json"
        path.write_text(text)
        out = tmp_path / "tables"
        code = main(["report", "--runs-dir", str(runs), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a run report")
        assert "Traceback" not in err
        assert not out.exists()

    def test_disagreeing_run_files_exit_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_0.json").write_text(run_file())
        path = runs / "run_1.json"
        path.write_text(run_file(seed=1, per_horizon_rmse=[0.1, 0.2, 0.3]))
        out = tmp_path / "tables"
        code = main(["report", "--runs-dir", str(runs), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: quantiles (0.5,) over 3 "
                              f"horizons, but run_0.json has (0.5,) over 2")
        assert not out.exists()

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        campaign = linear_campaign(tmp_path / "campaign")
        blocked = tmp_path / "file"
        blocked.write_text("x")
        code = main(["report", "--runs-dir", str(campaign / "runs"),
                     "--out", str(blocked / "tables")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocked / "tables") in err
        assert "Traceback" not in err

    def test_bad_campaign_config_exit_2(self, tmp_path, capsys):
        campaign = linear_campaign(tmp_path / "campaign")
        (campaign / "config.json").write_text('{"family": "linear"}')
        out = tmp_path / "tables"
        code = main(["report", "--runs-dir", str(campaign / "runs"),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {campaign / 'config.json'}: "
                              f"not a campaign config")
        assert not out.exists()


class TestGradcheckCommand:
    def test_quick_pass(self, capsys):
        code = main(["gradcheck", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gradient suite: PASS" in out
        assert "model edlstm/f1" in out

    @pytest.mark.parametrize("bad", [
        ["--seed", "-1"], ["--seed", "18446744073709551616"]])
    def test_bad_settings_exit_1_before_any_check(self, capsys, bad):
        # the suite's first SeededRng rejects the seed before any line
        assert main(["gradcheck"] + bad) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"config error: seed must lie in "
                                f"[0, 2**64), got {bad[1]}\n")
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "mackey-glass", "--family", "linear",
     "--data-steps", "200", "--out", "run"],
    ["report", "--runs-dir", "campaign/runs", "--format", "csv",
     "--out", "tables"],
    ["report", "--runs-dir", "campaign/runs", "--format", "svg-plot-data",
     "--out", "tables"],
    ["gradcheck", "--tol", "1e-3"]],
    ids=["train", "report-format-csv", "report-format-svg", "gradcheck-tol"])
def test_removed_command_or_flag_exit_1(tmp_path, monkeypatch, capsys, argv):
    # train is experiment --runs 1, report writes only the CSV tables, and
    # gradcheck's bound is gradsuite.TOL; each old spelling is unknown.
    linear_campaign(tmp_path / "campaign")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)

    def no_suite(*args, **kwargs):
        raise AssertionError("the suite ran")

    monkeypatch.setattr("quantforecast.cli.run_suite", no_suite)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("config error:")
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_readme_command_examples_parse():
    # The fenced block under "Command line", continuations joined; parsing
    # runs none of the commands.
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("quantforecast ")]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)
