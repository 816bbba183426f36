"""Campaign persistence, determinism, and report emission (fast configs
built on the linear family and tiny generated series)."""

import csv
import json

import numpy as np
import pytest

from quantforecast.errors import ConfigError, SchemaError
from quantforecast.evaluation import AggregateCell, AggregateReport
from quantforecast.experiment import (DEFAULT_HIDDEN, FAMILIES,
                                      ExperimentConfig, build_series,
                                      emit_report, load_run_reports,
                                      run_experiment)
from quantforecast.models import FAMILIES as MODEL_FAMILIES
from quantforecast.training import TrainConfig


def tiny_config(tmp_path, **kw):
    fields = dict(name="tiny", dataset="mackey-glass", family="linear",
                  quantile=True, runs=3, base_seed=0, data_steps=240,
                  window=5, horizons=3, output_dir=str(tmp_path))
    fields.update(kw)
    if fields["family"] == "linear" and fields["quantile"]:
        fields.setdefault("linear_iterations", 300)  # only this fit reads it
    return ExperimentConfig(**fields)


def run_file(**changes):
    """The JSON text of a one-level run report with the given fields
    changed."""
    return json.dumps(dict({"seed": 0, "quantiles": [0.5],
                            "per_horizon_rmse": [0.1, 0.2],
                            "per_quantile_rmse": [0.15], "mean_rmse": 0.15,
                            "wall_seconds": 1.0}, **changes))


class TestConfigValidation:
    def test_multivariate_needs_market_data(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, strategy="multivariate")

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, family="mlp")

    def test_market_dataset_needs_path(self, tmp_path):
        with pytest.raises(ConfigError, match="needs --csv-path"):
            tiny_config(tmp_path, dataset="bitcoin", data_steps=None)

    @pytest.mark.parametrize("kw, match", [
        (dict(dataset="csv", csv_path="x.csv"),
         "dataset 'csv' takes no data_steps$"),
        (dict(csv_path="x.csv", data_steps=None),
         "dataset 'mackey-glass' takes no csv_path$")],
        ids=["data-steps", "csv-path"])
    def test_dataset_setting_that_cannot_apply(self, tmp_path, kw, match):
        with pytest.raises(ConfigError, match=match):
            tiny_config(tmp_path, **kw)

    def test_defaults_by_dataset_kind(self, tmp_path, quoted_market_csv):
        benchmark = tiny_config(tmp_path, window=None, horizons=None)
        assert (benchmark.window, benchmark.horizons) == (5, 10)
        # The market defaults follow the schema a campaign reads, not the
        # file's header: a csv of market rows read univariate gets the
        # benchmark defaults.
        for dataset, strategy, expected in (
                ("bitcoin", "univariate", (6, 5, 100)),
                ("ethereum", "univariate", (6, 5, 100)),
                ("csv", "multivariate", (6, 5, 100)),
                ("csv", "univariate", (5, 10, 300))):
            config = ExperimentConfig(
                name="m", dataset=dataset, family="edlstm",
                strategy=strategy, csv_path=str(quoted_market_csv),
                output_dir=str(tmp_path))
            assert (config.window, config.horizons, config.epochs) \
                == expected, (dataset, strategy)

    def test_classic_model_forces_single_level(self, tmp_path):
        config = tiny_config(tmp_path, quantile=False)
        assert config.quantiles == (0.5,)

    def test_roundtrip_through_dict(self, tmp_path):
        a = tiny_config(tmp_path)
        b = ExperimentConfig.from_dict(a.to_dict())
        assert a == b

    def test_from_dict_names_unknown_keys(self, tmp_path):
        d = tiny_config(tmp_path).to_dict()
        d.update(epoch=3, hiden1=4)
        with pytest.raises(ConfigError, match="epoch, hiden1"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("sizes", [dict(hidden1=0), dict(hidden2=0),
                                       dict(hidden1=-2, hidden2=5)])
    def test_non_positive_hidden_size_rejected(self, tmp_path, sizes):
        with pytest.raises(ConfigError, match="hidden"):
            tiny_config(tmp_path, family="lstm", **sizes)

    @pytest.mark.parametrize("bad", [
        dict(epochs=0), dict(batch_size=0), dict(learning_rate=0.0),
        dict(learning_rate=-1e-3), dict(learning_rate=float("inf"))])
    def test_bad_training_numbers_rejected_at_construction(self, tmp_path,
                                                            bad):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, family="lstm", **bad)

    @pytest.mark.parametrize("bad", [
        dict(data_steps=0), dict(data_steps=5), dict(runs=0),
        dict(data_limit=-50), dict(data_limit=0), dict(data_offset=-60),
        dict(data_seed=-1), dict(base_seed=-1), dict(base_seed=2**64 - 2),
        dict(window=0), dict(window=1), dict(horizons=0), dict(workers=0),
        dict(linear_iterations=0), dict(train_fraction=0.0),
        dict(train_fraction=1.0), dict(data_seed=2**64)])
    def test_bad_campaign_numbers_rejected_at_construction(self, tmp_path,
                                                           bad):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, **bad)

    @pytest.mark.parametrize("bad", [
        dict(window="5"), dict(window=5.0), dict(quantiles=5),
        dict(quantiles=[0.5, "0.9"]), dict(quantile="no"), dict(quantile=1),
        dict(runs=2.0), dict(data_seed=True), dict(learning_rate="1e-3"),
        dict(batch_size=8.0), dict(csv_path=3), dict(family=None)])
    def test_mistyped_field_rejected(self, tmp_path, bad):
        (name, value), = bad.items()
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            tiny_config(tmp_path, **bad)

    def test_field_types_follow_the_annotations(self, tmp_path):
        # an int stands in a float field; None where the field allows it;
        # a list for the quantile levels
        config = tiny_config(tmp_path, family="lstm", learning_rate=1,
                             train_fraction=0.5, data_limit=None,
                             window=None, quantiles=[0.25, 0.5, 0.75])
        assert config.quantiles == (0.25, 0.5, 0.75)

    def test_quantile_set_without_median_rejected(self, tmp_path):
        # The run reports score the 0.5 level, also in a one-level set.
        for quantiles in ((0.1, 0.9), (0.9,)):
            with pytest.raises(ConfigError, match="must include 0.5"):
                tiny_config(tmp_path, quantiles=quantiles)
        assert tiny_config(tmp_path, quantiles=(0.5,)).quantiles == (0.5,)
        # a classic model is single-level whatever quantiles says
        classic = tiny_config(tmp_path, quantile=False, quantiles=(0.1, 0.9))
        assert classic.quantiles == (0.5,)

    def test_unset_hidden_sizes_take_family_defaults(self, tmp_path):
        config = tiny_config(tmp_path, family="lstm", hidden2=7)
        assert (config.hidden1, config.hidden2) == (50, 7)

    def test_unset_training_numbers_take_train_config_defaults(self,
                                                               tmp_path):
        config = tiny_config(tmp_path, family="lstm")
        assert (config.batch_size, config.learning_rate) == (
            TrainConfig.batch_size, TrainConfig.learning_rate) == (64, 1e-4)
        assert (tiny_config(tmp_path).batch_size,
                tiny_config(tmp_path).learning_rate) == (None, None)

    def test_linear_campaign_resolves_no_neural_settings(self, tmp_path):
        # config.json records null for each setting a campaign does not read
        saved = tiny_config(tmp_path).to_dict()
        assert (saved["hidden1"], saved["hidden2"], saved["epochs"]) \
            == (None, None, None)
        assert DEFAULT_HIDDEN.keys() == set(MODEL_FAMILIES)
        assert FAMILIES == (*MODEL_FAMILIES, "linear")
        neural = tiny_config(tmp_path, family="lstm").to_dict()
        assert neural["linear_iterations"] is None
        assert tiny_config(tmp_path, family="convlstm").to_dict()[
            "hidden2"] is None
        file = tiny_config(tmp_path, dataset="csv", data_steps=None,
                           csv_path="x.csv").to_dict()
        assert file["data_seed"] is None
        assert (neural["data_seed"], file["linear_iterations"]) == (0, 300)

    @pytest.mark.parametrize("kw, named", [
        (dict(hidden1=50), "hidden1"), (dict(hidden2=0), "hidden2"),
        (dict(epochs=7), "epochs"),
        (dict(hidden1=1, hidden2=1, epochs=300), "hidden1, hidden2, epochs"),
        (dict(batch_size=0), "batch_size"),
        (dict(learning_rate=-1.0), "learning_rate"),
        (dict(batch_size=64, learning_rate=1e-4),
         "batch_size, learning_rate"),
        # the same rule for every family and dataset
        (dict(family="lstm", linear_iterations=7), "linear_iterations"),
        (dict(family="convlstm", hidden2=5), "hidden2"),
        (dict(dataset="csv", csv_path="x.csv", data_steps=None,
              data_seed=3), "data_seed"),
        # the OLS fit of a classic linear campaign has no iterations
        (dict(quantile=False, linear_iterations=7), "linear_iterations")])
    def test_neural_setting_on_linear_campaign_rejected(self, tmp_path, kw,
                                                        named):
        family = kw.get("family", "linear")
        dataset = kw.get("dataset", "mackey-glass")
        with pytest.raises(ConfigError, match=f"^family '{family}' on dataset "
                           f"'{dataset}' takes no {named}$"):
            tiny_config(tmp_path, **kw)


class TestBuildSeries:
    def test_generated_series_pinned_by_data_seed(self, tmp_path):
        a = build_series(tiny_config(tmp_path, data_seed=5))
        b = build_series(tiny_config(tmp_path, data_seed=5))
        c = build_series(tiny_config(tmp_path, data_seed=6))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_lorenz_downsampling(self, tmp_path):
        full = build_series(tiny_config(tmp_path, dataset="lorenz",
                                        data_steps=900))
        config = tiny_config(tmp_path, dataset="lorenz", data_steps=900,
                             data_offset=300, data_limit=250)
        series = build_series(config)
        assert series.length == 250
        assert np.array_equal(series.values, full.values[300:550])

    def test_univariate_strategy_on_market_csv(self, tmp_path):
        csv = tmp_path / "m.csv"
        rows = ["Date,High,Low,Open,Close,Volume"]
        rows += [f"2020-01-{i + 1:02d},{i + 2},{i},{i + 1},{i + 1.5},100"
                 for i in range(30)]
        csv.write_text("\n".join(rows) + "\n")
        config = ExperimentConfig(
            name="u", dataset="csv", family="linear", strategy="univariate",
            csv_path=str(csv), window=4, horizons=2, runs=1,
            output_dir=str(tmp_path))
        series = build_series(config)
        assert series.columns == ["close"]
        assert series.values[:, 0].tolist() == [i + 1.5 for i in range(30)]

    def test_quoted_market_header_is_sniffed(self, tmp_path,
                                             quoted_market_csv):
        config = ExperimentConfig(
            name="q", dataset="csv", family="linear", strategy="multivariate",
            csv_path=str(quoted_market_csv), window=4, horizons=2, runs=1,
            output_dir=str(tmp_path))
        series = build_series(config)
        assert series.columns == ["high", "low", "open", "close", "volume"]

    @pytest.mark.parametrize("dataset", ["bitcoin", "ethereum"])
    def test_market_dataset_columns_by_strategy(self, tmp_path,
                                                quoted_market_csv, dataset):
        for strategy, columns in (
                ("multivariate", ["high", "low", "open", "close", "volume"]),
                ("univariate", ["close"])):
            config = ExperimentConfig(
                name=dataset, dataset=dataset, family="linear",
                strategy=strategy, csv_path=str(quoted_market_csv), runs=1,
                output_dir=str(tmp_path))
            series = build_series(config)
            assert (series.name, series.columns) == (dataset, columns)
            assert series.length == 60

    def test_sunspot_reads_the_univariate_schema(self, tmp_path,
                                                 quoted_market_csv):
        path = tmp_path / "s.csv"
        path.write_text("Date,Value\n1749-02-01,62.6\n1749-01-01,58.0\n")
        config = ExperimentConfig(
            name="s", dataset="sunspot", family="linear", csv_path=str(path),
            runs=1, output_dir=str(tmp_path))
        series = build_series(config)
        assert series.columns == ["value"]
        assert series.values[:, 0].tolist() == [58.0, 62.6]
        config.csv_path = str(quoted_market_csv)
        with pytest.raises(SchemaError, match=r"missing columns \['value'\]"):
            build_series(config)


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        config = tiny_config(tmp_path)
        aggregate = run_experiment(config)
        assert aggregate.runs_completed == 3
        assert (tmp_path / "config.json").exists()
        assert sorted(p.name for p in (tmp_path / "runs").glob("*.json")) == [
            "run_0.json", "run_1.json", "run_2.json"]
        assert (tmp_path / "aggregate.csv").exists()
        assert (tmp_path / "table.csv").exists()
        assert (tmp_path / "per_horizon_rmse.csv").exists()
        assert len(list((tmp_path / "traces").glob("trace_*.csv"))) == 3

    def test_fixed_seeds_reproduce_identical_aggregate_bytes(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "one"))
        run_experiment(tiny_config(tmp_path / "two"))
        first = (tmp_path / "one" / "aggregate.csv").read_bytes()
        second = (tmp_path / "two" / "aggregate.csv").read_bytes()
        assert first == second

    def test_seed_list_is_contiguous_from_base(self, tmp_path):
        config = tiny_config(tmp_path, base_seed=10, runs=2)
        run_experiment(config)
        reports = load_run_reports(tmp_path / "runs")
        assert [r.seed for r in reports] == [10, 11]

    @pytest.mark.parametrize("text", [
        '{"seed": 0, "quan', '{"seed": 0}', '[0]',
        pytest.param(run_file(per_horizon_rmse=["x", "y"], mean_rmse="x"),
                     id="string-rmse"),
        pytest.param(run_file(quantiles=[0.5, 0.9]), id="quantile-count"),
        pytest.param(run_file(per_horizon_rmse=0.1), id="scalar-rmse"),
        pytest.param(run_file(seed="0"), id="string-seed")])
    def test_bad_run_file_names_the_file(self, tmp_path, text):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_0.json").write_text(text)
        with pytest.raises(SchemaError, match="run_0.json: not a run report"):
            load_run_reports(runs)

    def test_run_file_off_the_first_files_shape_named(self, tmp_path):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_0.json").write_text(run_file())
        (runs / "run_1.json").write_text(run_file(seed=1))
        (runs / "run_2.json").write_text(run_file(
            seed=2, quantiles=[0.25, 0.5], per_quantile_rmse=[0.1, 0.15]))
        with pytest.raises(SchemaError, match="run_2.json: quantiles "
                           r"\(0.25, 0.5\) over 2 horizons, but run_0.json"):
            load_run_reports(runs)

    def test_reaggregation_matches_fresh_aggregate(self, tmp_path):
        config = tiny_config(tmp_path)
        aggregate = run_experiment(config)
        from quantforecast.evaluation import aggregate_runs
        again = aggregate_runs(load_run_reports(tmp_path / "runs"))
        assert again.mean_rmse.mean == pytest.approx(aggregate.mean_rmse.mean,
                                                     abs=0)

    def test_parallel_workers_match_sequential_aggregate(self, tmp_path):
        run_experiment(tiny_config(tmp_path / "seq"))
        run_experiment(tiny_config(tmp_path / "par", workers=2))
        sequential = (tmp_path / "seq" / "aggregate.csv").read_bytes()
        parallel = (tmp_path / "par" / "aggregate.csv").read_bytes()
        assert sequential == parallel

    def test_parallel_workers_build_series_once(self, tmp_path, monkeypatch):
        import quantforecast.experiment as exp

        calls = []
        original = exp.build_series
        def counted(config):
            calls.append(config.name)
            return original(config)

        monkeypatch.setattr(exp, "build_series", counted)
        run_experiment(tiny_config(tmp_path, workers=2))
        assert calls == ["tiny"]

    def test_quantile_deep_run_emits_diagnostics(self, tmp_path):
        config = tiny_config(tmp_path, family="edlstm", hidden1=3, hidden2=3,
                             epochs=2, runs=1, batch_size=32,
                             learning_rate=1e-3)
        with pytest.warns(UserWarning, match="single run"):
            run_experiment(config)
        report = load_run_reports(tmp_path / "runs")[0]
        assert report.coverage_05_95 is not None
        assert report.crossing is not None
        assert len(report.per_quantile_rmse) == 5


    def test_test_set_prediction_keeps_no_tape(self, tmp_path, monkeypatch):
        import quantforecast.experiment as exp

        original = exp.forward_pass
        outputs = []
        def recorded(model, windows):
            outputs.append(original(model, windows))
            return outputs[-1]

        monkeypatch.setattr(exp, "forward_pass", recorded)
        config = tiny_config(tmp_path, family="lstm", hidden1=3, hidden2=3,
                             epochs=1, runs=2)
        run_experiment(config)
        assert len(outputs) == 2
        assert all(out.parents == () and out.backward_fn is None
                   for out in outputs)


class TestEmitReport:
    def make_aggregate(self):
        return AggregateReport(
            runs_requested=5, runs_completed=5, quantiles=(0.05, 0.5, 0.95),
            mean_rmse=AggregateCell(0.0112, 0.0005),
            per_horizon=[AggregateCell(0.011 + 0.001 * j, 0.0003)
                         for j in range(5)],
            per_quantile=[AggregateCell(0.0226, 0.0028),
                          AggregateCell(0.0112, 0.0008),
                          AggregateCell(0.0206, 0.0023)])

    def test_wide_table_has_mean_and_step_columns(self, tmp_path):
        emit_report(self.make_aggregate(), "csv", tmp_path)
        header = (tmp_path / "table.csv").read_text().splitlines()[0]
        assert header.split(",") == ["Mean", "Step 1", "Step 2", "Step 3",
                                     "Step 4", "Step 5"]

    def test_csv_roundtrip_exact(self, tmp_path):
        aggregate = self.make_aggregate()
        emit_report(aggregate, "csv", tmp_path,
                    label={"model": "edlstm", "strategy": "multivariate",
                           "quantile": "yes"})
        with open(tmp_path / "aggregate.csv", newline="") as fh:
            parsed = {(row["metric"], row["step_or_quantile"]):
                      (float(row["mean"]), float(row["ci_half_width"]))
                      for row in csv.DictReader(fh)}
        assert parsed["mean_rmse", ""] == (0.0112, 0.0005)
        assert parsed["horizon_rmse", "step 3"][0] == \
            aggregate.per_horizon[2].mean
        assert parsed["quantile_rmse", "0.05"] == (0.0226, 0.0028)

    def test_unknown_format(self, tmp_path):
        # "csv" is the only format; the retired SVG chart is unknown too
        for fmt in ("pdf", "svg-plot-data"):
            with pytest.raises(ConfigError):
                emit_report(self.make_aggregate(), fmt, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unwritable_path(self, tmp_path):
        # OSError, as every campaign file writer raises; the CLI exits 2
        blocked = tmp_path / "file"
        blocked.write_text("x")
        with pytest.raises(OSError):
            emit_report(self.make_aggregate(), "csv", blocked / "sub")


class TestFailureHandling:
    def test_failed_runs_recorded_capaign_continues(self, tmp_path, monkeypatch):
        import quantforecast.experiment as exp

        original = exp.run_single
        def flaky(config, series, seed):
            if seed == 1:
                raise RuntimeError("synthetic failure")
            return original(config, series, seed)

        monkeypatch.setattr(exp, "run_single", flaky)
        config = tiny_config(tmp_path)
        aggregate = run_experiment(config)
        assert aggregate.runs_completed == 2
        assert aggregate.runs_requested == 3
        failures = json.loads((tmp_path / "failures.json").read_text())
        assert failures[0]["seed"] == 1
        assert "synthetic failure" in failures[0]["error"]
