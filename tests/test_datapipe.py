"""Generators against closed-form/step-halving oracles and, bit for bit,
their numpy-stepped reference; CSV ingestion; window and split
properties."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from quantforecast.datapipe import (JITTER, LORENZ_INITIAL, LorenzParams,
                                    MackeyGlassParams, RawSeries, crop,
                                    gen_lorenz, gen_mackey_glass, load_csv,
                                    make_windows, normalize_and_split,
                                    write_series_csv)
from quantforecast.errors import (ConfigError, DegenerateFeature,
                                  InsufficientData, NumericalError,
                                  ParseError, SchemaError)

from generator_oracle import lorenz_values, mackey_glass_values


class TestMackeyGlass:
    def test_requested_length(self):
        series = gen_mackey_glass(MackeyGlassParams(steps=3000), seed=0)
        assert series.length == 3000

    def test_same_seed_identical(self):
        a = gen_mackey_glass(MackeyGlassParams(steps=200), seed=9)
        b = gen_mackey_glass(MackeyGlassParams(steps=200), seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = gen_mackey_glass(MackeyGlassParams(steps=200), seed=1)
        b = gen_mackey_glass(MackeyGlassParams(steps=200), seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_pure_decay_closed_form(self):
        # with a=0 the delay term vanishes: dx/dt = -b x, x(t) = x0 e^(-bt)
        # from the series' own (jittered) start x0
        steps, b, dt = 200, 0.1, 1.0
        params = MackeyGlassParams(a=0.0, b=b, steps=steps)
        series = gen_mackey_glass(params, seed=0)
        t = np.arange(steps)
        expected = series.values[0, 0] * np.exp(-b * t)
        rel = np.abs(series.values[:, 0] - expected) / expected
        # RK4 local truncation on exp decay: (b dt)^5 / 5! per step
        tolerance = 2 * steps * (b * dt) ** 5 / 120
        assert np.max(rel) < tolerance

    def test_bounded_band_at_reference_parameters(self):
        series = gen_mackey_glass(MackeyGlassParams(steps=3000), seed=3)
        assert np.max(np.abs(series.values)) < 2.0

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError):
            MackeyGlassParams(steps=5, delay=10)

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_non_positive_step_rejected(self, dt):
        with pytest.raises(ConfigError, match="dt > 0"):
            MackeyGlassParams(dt=dt)

    @pytest.mark.parametrize("seed", [0, 1, 9, 2**64 - 1])
    def test_bitwise_equal_to_numpy_stepped_oracle(self, seed):
        for dt, delay in itertools.product((1.0, 0.5, 0.3), (1, 10, 17)):
            for steps in (delay + 2, 3000):
                params = MackeyGlassParams(dt=dt, delay=delay, steps=steps)
                got = gen_mackey_glass(params, seed).values
                want = mackey_glass_values(params, seed)
                assert got.tobytes() == want.tobytes(), params

    def test_overflowing_growth_term_names_step(self):
        params = MackeyGlassParams(a=1e40, steps=50)
        with pytest.raises(NumericalError,
                           match="'mackey-glass' overflows at step"):
            gen_mackey_glass(params, seed=0)


class TestLorenz:
    def test_requested_length_and_full_series(self):
        # the three components, one request each, make up the trajectory
        parts = [gen_lorenz(LorenzParams(steps=1000, component=c), seed=0)
                 for c in "xyz"]
        assert [(p.length, p.columns) for p in parts] == [(1000, ["value"])] * 3
        full = np.hstack([p.values for p in parts])
        assert np.array_equal(full,
                              lorenz_values(LorenzParams(steps=1000), 0))

    def test_sigma_zero_freezes_x(self):
        # dx/dt = sigma (y - x) is zero, so x keeps its jittered first value
        uni = gen_lorenz(LorenzParams(sigma=0.0, steps=500), seed=0)
        assert abs(uni.values[0, 0] - LORENZ_INITIAL[0]) <= JITTER
        assert np.all(uni.values == uni.values[0, 0])

    def test_component_selector(self):
        params = LorenzParams(steps=300, component="z")
        uni = gen_lorenz(params, seed=4)
        assert uni.name == "lorenz-z"
        assert np.array_equal(uni.values[:, 0],
                              lorenz_values(params, 4)[:, 2])

    def test_step_halving_oracle(self):
        # Richardson-style check: halving dt and resampling must leave the
        # first 100 sampled points nearly unchanged; the shared seed gives
        # both the same jittered initial state
        coarse = gen_lorenz(LorenzParams(steps=101, dt=0.01), seed=0)
        fine = gen_lorenz(LorenzParams(steps=201, dt=0.005), seed=0)
        resampled = fine.values[::2][:101]
        assert np.max(np.abs(coarse.values - resampled)) < 1e-3

    def test_crop(self):
        uni = gen_lorenz(LorenzParams(steps=1000), seed=0)
        ds = crop(uni, limit=300, offset=100)
        assert ds.length == 300
        assert np.array_equal(ds.values, uni.values[100:400])
        assert crop(uni, offset=990).length == 10

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_non_positive_step_rejected(self, dt):
        with pytest.raises(ConfigError, match="dt > 0"):
            LorenzParams(dt=dt)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_bitwise_equal_to_numpy_stepped_oracle(self, seed):
        for dt, steps in itertools.product((0.01, 0.005), (2, 1000, 10000)):
            want = lorenz_values(LorenzParams(dt=dt, steps=steps), seed)
            for col, component in enumerate("xyz"):
                params = LorenzParams(dt=dt, steps=steps, component=component)
                uni = gen_lorenz(params, seed)
                assert uni.values.tobytes() == want[:, col].tobytes(), params
        for col, component in enumerate("xyz"):
            params = LorenzParams(sigma=0, steps=1000, component=component)
            assert (gen_lorenz(params, seed).values.tobytes()
                    == lorenz_values(params, seed)[:, col].tobytes())

    def test_diverging_series_is_numerical_error(self):
        with pytest.raises(NumericalError, match="'lorenz'"):
            gen_lorenz(LorenzParams(dt=0.5, steps=2000), seed=0)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


MARKET_HEADER = "SNo,Name,Symbol,Date,High,Low,Open,Close,Volume,Marketcap\n"


class TestLoadCsv:
    def test_market_schema_drops_extra_columns(self, tmp_path):
        content = MARKET_HEADER + \
            "1,Coin,C,2013-04-29,147.5,134.0,134.4,144.5,0.0,1.6e9\n" + \
            "2,Coin,C,2013-04-30,146.9,134.1,144.0,139.0,0.0,1.5e9\n"
        series = load_csv(write_csv(tmp_path / "m.csv", content), "market")
        assert series.columns == ["high", "low", "open", "close", "volume"]
        assert series.values.shape == (2, 5)
        assert series.values[0, 3] == 144.5

    def test_no_schema_picks_it_from_the_header(self, tmp_path,
                                                quoted_market_csv):
        market = ["high", "low", "open", "close", "volume"]
        content = MARKET_HEADER + \
            "1,Coin,C,2013-04-29,147.5,134.0,134.4,144.5,0.0,1.6e9\n"
        assert load_csv(write_csv(tmp_path / "m.csv", content)).columns \
            == market
        assert load_csv(quoted_market_csv).columns == market
        # four of the five market columns make a univariate header
        content = "Date,High,Low,Open,Close,Value\n2020-01-01,1,1,1,1,2\n"
        series = load_csv(write_csv(tmp_path / "u.csv", content))
        assert (series.columns, series.values.tolist()) == (["value"], [[2.0]])
        with pytest.raises(SchemaError, match=r"missing columns \['value'\]"):
            load_csv(write_csv(tmp_path / "x.csv", "Date,Price\n1,2\n"))

    def test_rows_sorted_by_date(self, tmp_path):
        content = "Date,Value\n2020-01-03,3.0\n2020-01-01,1.0\n2020-01-02,2.0\n"
        series = load_csv(write_csv(tmp_path / "u.csv", content), "univariate")
        assert series.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_day_first_dates(self, tmp_path):
        content = "Date,Value\n02/01/2020,2.0\n01/01/2020,1.0\n"
        series = load_csv(write_csv(tmp_path / "d.csv", content), "univariate")
        assert series.values[:, 0].tolist() == [1.0, 2.0]

    def test_integer_step_index(self, tmp_path):
        content = "Date,Value\n0,5.0\n1,6.0\n2,7.0\n 4 ,9.0\n+3,8.0\n-1,4.0\n"
        series = load_csv(write_csv(tmp_path / "i.csv", content), "univariate")
        assert series.length == 6
        assert series.values[:, 0].tolist() == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_missing_column_lists_names(self, tmp_path):
        content = "Date,High,Low,Open,Close\n2020-01-01,1,1,1,1\n"
        with pytest.raises(SchemaError, match="volume"):
            load_csv(write_csv(tmp_path / "x.csv", content), "market")

    def test_duplicated_header_row_is_parse_error_at_row_2(self, tmp_path):
        content = "Date,Value\nDate,Value\n2020-01-01,1.0\n"
        with pytest.raises(ParseError) as err:
            load_csv(write_csv(tmp_path / "dup.csv", content), "univariate")
        assert err.value.row == 2

    def test_unparseable_cell_reports_row(self, tmp_path):
        content = "Date,Value\n2020-01-01,1.0\n2020-01-02,oops\n"
        with pytest.raises(ParseError) as err:
            load_csv(write_csv(tmp_path / "bad.csv", content), "univariate")
        assert err.value.row == 3

    def test_short_row_reports_row(self, tmp_path):
        content = "Date,Value\n2020-01-01,1.0\n3\n"
        with pytest.raises(ParseError) as err:
            load_csv(write_csv(tmp_path / "short.csv", content), "univariate")
        assert err.value.row == 3

    def test_generated_series_roundtrip(self, tmp_path):
        series = gen_mackey_glass(MackeyGlassParams(steps=50), seed=1)
        path = tmp_path / "mg.csv"
        write_series_csv(path, series)
        loaded = load_csv(path, "univariate")
        assert np.array_equal(loaded.values, series.values)
        dates = [line.split(",")[0] for line in path.read_text().splitlines()]
        assert dates == ["Date"] + [str(i) for i in range(50)]

    def test_writer_cells_are_float_reprs(self, tmp_path):
        series = RawSeries(name="lorenz-y", columns=["value"],
                           values=lorenz_values(LorenzParams(steps=300),
                                                2)[:, 1])
        path = tmp_path / "lz.csv"
        write_series_csv(path, series)
        rows = [["Date", "Value"]]
        rows += [[str(i), repr(float(v))]
                 for i, v in enumerate(series.values[:, 0])]
        expected = "".join(",".join(row) + "\r\n" for row in rows)
        assert path.read_bytes() == expected.encode("utf-8")
        wide = RawSeries(name="lorenz", columns=["x", "y", "z"],
                         values=lorenz_values(LorenzParams(steps=3), 2))
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "wide.csv", wide)

    def test_converted_sunspot_file_loads(self, tmp_path):
        # scripts/fetch_sunspot.py: SILSO rows (year; month; decimal year;
        # value; ...) to the univariate schema, missing months (-1) dropped
        script = Path(__file__).parents[1] / "scripts" / "fetch_sunspot.py"
        spec = importlib.util.spec_from_file_location("fetch_sunspot", script)
        fetch_sunspot = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fetch_sunspot)
        silso = write_csv(tmp_path / "SN_m_tot_V2.0.csv",
                          "1749;   1;1749.042;   96.7; -1.0;   -1;1\n"
                          "1749;   2;1749.123;   -1  ; -1.0;   -1;1\n"
                          "1749;   3;1749.204;   94.0; -1.0;   -1;1\n"
                          "1749;  10;1749.789;  107.0; -1.0;   -1;1\n")
        out = tmp_path / "sunspot.csv"
        assert fetch_sunspot.convert(str(silso), str(out)) == 3
        dates = [line.split(",")[0] for line in out.read_text().splitlines()]
        assert dates == ["Date", "1749-01-01", "1749-03-01", "1749-10-01"]
        series = load_csv(out, schema="univariate")
        assert series.values[:, 0].tolist() == [96.7, 94.0, 107.0]


class TestMakeWindows:
    def test_count_formula_minimal(self):
        series = RawSeries("s", ["value"], np.arange(12.0))
        ds = make_windows(series, 6, 5)
        assert ds.count == 2  # T - d - m + 1

    def test_window_alignment_manual(self):
        series = RawSeries("s", ["value"], np.arange(1.0, 14.0))
        ds = make_windows(series, 6, 5)
        assert ds.inputs[0, :, 0].tolist() == [1, 2, 3, 4, 5, 6]
        assert ds.targets[0].tolist() == [7, 8, 9, 10, 11]

    def test_count_formula_property(self, rng):
        # 200 random (T, d, m) triples with T > d + m
        for _ in range(200):
            d = int(rng.integers(2, 12))
            m = int(rng.integers(1, 12))
            t_len = int(rng.integers(d + m + 1, d + m + 60))
            series = RawSeries("s", ["value"], rng.normal(size=t_len))
            ds = make_windows(series, d, m)
            assert ds.count == t_len - d - m + 1

    def test_offsets_against_naive_loop(self, rng):
        values = rng.normal(size=(40, 3))
        series = RawSeries("s", ["a", "b", "c"], values)
        d, m = 5, 4
        ds = make_windows(series, d, m)
        assert ds.inputs.flags.c_contiguous and ds.targets.flags.c_contiguous
        # with no "close" column the target is the first column
        assert ds.target_index == 0
        for i in range(ds.count):
            assert np.array_equal(ds.inputs[i], values[i:i + d])
            assert np.array_equal(ds.targets[i], values[i + d:i + d + m, 0])

    def test_multivariate_keeps_features_targets_one_column(self, rng):
        values = rng.normal(size=(30, 5))
        series = RawSeries("s", list("abcde"), values)
        ds = make_windows(series, 4, 2)
        assert ds.inputs.shape == (25, 4, 5)
        assert ds.targets.shape == (25, 2)

    def test_close_column_is_default_target(self, rng):
        from quantforecast.datapipe import MARKET_FEATURES
        values = rng.normal(size=(30, 5))
        series = RawSeries("s", list(MARKET_FEATURES), values)
        ds = make_windows(series, 4, 2)
        assert ds.feature_names[ds.target_index] == "close"

    def test_too_short_series(self):
        series = RawSeries("s", ["value"], np.arange(11.0))
        with pytest.raises(InsufficientData):
            make_windows(series, 6, 5)


class TestNormalizeAndSplit:
    def test_midpoint_maps_to_half(self):
        values = np.concatenate([[10.0, 15.0, 20.0], np.linspace(11, 19, 27)])
        series = RawSeries("s", ["value"], values)
        windows = make_windows(series, 4, 2)
        assert windows.series_min[0] == 10.0 and windows.series_max[0] == 20.0
        ds = normalize_and_split(windows, seed=0)
        assert ds.inputs[0, 1, 0] == 0.5  # raw 15 on range [10, 20]
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)
        assert np.all(ds.targets >= 0.0) and np.all(ds.targets <= 1.0)

    def test_scaling_matches_min_max_of_raw_series(self, rng):
        values = rng.uniform(5.0, 9.0, size=80)
        series = RawSeries("s", ["value"], values)
        ds = normalize_and_split(make_windows(series, 4, 2), seed=1)
        scaled = (values - values.min()) / (values.max() - values.min())
        inputs = np.empty_like(ds.inputs)
        targets = np.empty_like(ds.targets)
        for i in range(ds.count):
            inputs[i, :, 0] = scaled[i:i + 4]
            targets[i] = scaled[i + 4:i + 6]
        assert np.max(np.abs(ds.inputs - inputs)) < 1e-12
        assert np.max(np.abs(ds.targets - targets)) < 1e-12

    def test_split_sizes_and_partition(self):
        series = RawSeries("s", ["value"], np.arange(19.0))
        ds = normalize_and_split(make_windows(series, 6, 4), seed=7)
        assert ds.count == 10
        assert len(ds.train_idx) == 8
        assert len(ds.test_idx) == 2
        merged = np.concatenate([ds.train_idx, ds.test_idx])
        assert sorted(merged.tolist()) == list(range(10))

    def test_split_stable_across_runs(self):
        series = RawSeries("s", ["value"], np.arange(40.0))
        a = normalize_and_split(make_windows(series, 5, 3), seed=3)
        b = normalize_and_split(make_windows(series, 5, 3), seed=3)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_partition_property_random_sizes(self, rng):
        for _ in range(50):
            t_len = int(rng.integers(15, 80))
            series = RawSeries("s", ["value"],
                               rng.normal(size=t_len) + 10.0 * rng.random())
            ds = normalize_and_split(make_windows(series, 4, 3),
                                     seed=int(rng.integers(0, 1000)))
            n = ds.count
            assert len(ds.train_idx) == round(0.8 * n)
            merged = sorted(np.concatenate([ds.train_idx, ds.test_idx]).tolist())
            assert merged == list(range(n))

    def test_degenerate_feature_named(self):
        values = np.stack([np.arange(30.0), np.full(30, 2.0)], axis=1)
        series = RawSeries("s", ["a", "flat"], values)
        with pytest.raises(DegenerateFeature, match="flat"):
            normalize_and_split(make_windows(series, 4, 2), seed=0)

    def test_finalized_arrays_are_readonly(self):
        series = RawSeries("s", ["value"], np.arange(30.0))
        ds = normalize_and_split(make_windows(series, 4, 2), seed=0)
        with pytest.raises(ValueError):
            ds.inputs[0, 0, 0] = 5.0
