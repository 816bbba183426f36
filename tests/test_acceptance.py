"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Criteria 4-7 train full-size models and take a few
minutes each; the whole suite is budgeted for a single workstation core.

Run with: pytest tests/test_acceptance.py -v -s
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from quantforecast.baselines import fit_ols, fit_quantile_linear
from quantforecast.experiment import ExperimentConfig, load_run_reports, \
    run_experiment
from quantforecast.gradsuite import TOL, check_all_families, check_all_ops
from quantforecast.losses import DEFAULT_QUANTILES, quantile_loss_batch

RESULTS: dict[str, str] = {}


def record(criterion: str, message: str) -> None:
    RESULTS[criterion] = message
    print(f"\n[acceptance] criterion {criterion}: PASS  {message}")


# --- campaigns shared across criteria ---------------------------------------

MG_RUNS = 5
LORENZ_RUNS = 5


@pytest.fixture(scope="session")
def mg_campaign(tmp_path_factory):
    """Criterion 4 campaign: quantile encoder-decoder LSTM at reference
    benchmark sizes on 3000 generated Mackey-Glass steps, seeds 0..4."""
    out = tmp_path_factory.mktemp("mg_campaign")
    config = ExperimentConfig(
        name="mg-acceptance", dataset="mackey-glass", family="edlstm",
        quantile=True, strategy="univariate", window=5, horizons=10,
        hidden1=100, hidden2=100, epochs=60, batch_size=64,
        learning_rate=1e-3, runs=MG_RUNS, base_seed=0, data_seed=0,
        data_steps=3000, output_dir=str(out))
    start = time.perf_counter()
    aggregate = run_experiment(config)
    wall = time.perf_counter() - start
    return aggregate, load_run_reports(out / "runs"), wall


@pytest.fixture(scope="session")
def lorenz_campaign(tmp_path_factory):
    """Criterion 5 campaign: classic encoder-decoder LSTM on the last 3000
    of 10000 generated Lorenz steps (warm-up transient discarded),
    seeds 0..4."""
    out = tmp_path_factory.mktemp("lorenz_campaign")
    config = ExperimentConfig(
        name="lorenz-acceptance", dataset="lorenz", family="edlstm",
        quantile=False, strategy="univariate", window=5, horizons=10,
        hidden1=100, hidden2=100, epochs=60, batch_size=32,
        learning_rate=1e-3, runs=LORENZ_RUNS, base_seed=0, data_seed=0,
        data_steps=10000, data_offset=7000, data_limit=3000,
        output_dir=str(out))
    start = time.perf_counter()
    aggregate = run_experiment(config)
    wall = time.perf_counter() - start
    return aggregate, load_run_reports(out / "runs"), wall


class TestCriterion1Gradients:
    def test_gradcheck_all_ops_and_families(self):
        # Every report passes against gradsuite.TOL; pin the bound here so
        # it cannot loosen unseen.
        assert TOL == 1e-4
        start = time.perf_counter()
        op_reports = check_all_ops(seed=0)
        family_reports = check_all_families(seed=0)
        wall = time.perf_counter() - start
        worst = 0.0
        for name, report in {**op_reports, **family_reports}.items():
            assert report.passed, f"{name}: {report.blocks}"
            worst = max(worst, report.max_rel_err)
        assert wall < 60.0, f"gradient suite took {wall:.1f}s"
        record("1", f"all {len(op_reports)} ops + {len(family_reports)} "
                    f"family configs, max rel err {worst:.2e}, {wall:.1f}s")


def pinball(y: float, y_hat: float, q: float) -> float:
    """The program's pinball loss of one residual, scored as one cell."""
    return quantile_loss_batch(np.array([[y]]), np.array([[[y_hat]]]),
                               (q,)).total


class TestCriterion2PinballValues:
    def test_unit_values_exact(self):
        assert abs(pinball(1.0, 0.5, 0.95) - 0.475) <= 1e-15
        assert abs(pinball(0.5, 1.0, 0.95) - 0.025) <= 1e-15
        for q in DEFAULT_QUANTILES:
            assert pinball(0.7, 0.7, q) == 0.0
        record("2", "pinball(1,.5,.95)=0.475, pinball(.5,1,.95)=0.025, "
                    "zero at zero residual (exact)")


class TestCriterion3QuantileMinimizer:
    def test_intercept_recovers_empirical_quantile(self):
        # Ground truth first: a brute-force grid oracle locates the set of
        # constants minimising mean pinball. For n*q integer that set is a
        # flat interval between order statistics, so the fit is checked
        # against the interval, not a single point.
        rng = np.random.default_rng(2024)
        sample = rng.uniform(0.0, 1.0, size=200)
        from quantforecast.datapipe import WindowedDataset
        n = sample.size
        dataset = WindowedDataset(
            inputs=rng.uniform(size=(n, 2, 1)) * 1e-12,
            targets=sample[:, None], train_idx=np.arange(n),
            test_idx=np.arange(0), split_seed=0)

        worst = 0.0
        for q in DEFAULT_QUANTILES:
            grid = np.linspace(sample.min(), sample.max(), 20001)
            step = grid[1] - grid[0]
            losses = np.array([
                np.mean(np.where(sample - c >= 0, q * (sample - c),
                                 (q - 1) * (sample - c))) for c in grid])
            near_optimal = grid[losses <= losses.min() + 1e-12]
            lo, hi = near_optimal.min() - step, near_optimal.max() + step

            model = fit_quantile_linear(dataset, (q,), iterations=20000,
                                        learning_rate=0.02)
            fit = model.intercept[0, 0]
            distance = max(lo - fit, fit - hi, 0.0)
            worst = max(worst, distance)
            assert distance <= 1e-3, (
                f"q={q}: fit {fit:.6f} outside oracle interval "
                f"[{lo:.6f}, {hi:.6f}] by {distance:.2e}")
        record("3", f"5 levels on 200 samples, worst distance to the "
                    f"oracle minimiser set {worst:.2e} (<= 1e-3)")


class TestCriterion4MackeyGlass:
    def test_median_rmse_and_runtime(self, mg_campaign):
        aggregate, reports, wall = mg_campaign
        assert aggregate.runs_completed == MG_RUNS
        assert wall <= 600.0, f"campaign took {wall:.0f}s"
        assert aggregate.mean_rmse.mean <= 0.03, (
            f"median-quantile mean RMSE {aggregate.mean_rmse.mean:.4f}")
        record("4", f"median-quantile mean RMSE "
                    f"{aggregate.mean_rmse.mean:.4f} +- "
                    f"{aggregate.mean_rmse.half_width:.4f} "
                    f"(<= 0.03), {wall:.0f}s for {MG_RUNS} runs")


class TestCriterion5Lorenz:
    def test_mean_rmse_and_runtime(self, lorenz_campaign):
        aggregate, reports, wall = lorenz_campaign
        assert aggregate.runs_completed == LORENZ_RUNS
        assert wall <= 600.0, f"campaign took {wall:.0f}s"
        assert aggregate.mean_rmse.mean <= 0.01, (
            f"mean RMSE {aggregate.mean_rmse.mean:.4f}")
        record("5", f"mean RMSE {aggregate.mean_rmse.mean:.4f} +- "
                    f"{aggregate.mean_rmse.half_width:.4f} (<= 0.01), "
                    f"{wall:.0f}s for {LORENZ_RUNS} runs")


class TestCriterion6QuantileOrdering:
    def test_median_beats_outer_quantiles_per_run(self, mg_campaign):
        _, reports, _ = mg_campaign
        qs = reports[0].quantiles
        lo_idx, med_idx, hi_idx = 0, qs.index(0.5), len(qs) - 1
        ordered = sum(
            1 for r in reports
            if r.per_quantile_rmse[med_idx] < r.per_quantile_rmse[lo_idx]
            and r.per_quantile_rmse[med_idx] < r.per_quantile_rmse[hi_idx])
        assert ordered >= 4, f"ordering held in only {ordered}/{len(reports)}"
        record("6", f"median RMSE strictly below q=0.05 and q=0.95 in "
                    f"{ordered}/{len(reports)} quantile runs (>= 4/5)")


class TestCriterion7Coverage:
    def test_band_coverage_in_tolerance(self, mg_campaign):
        _, reports, _ = mg_campaign
        covers = [r.coverage_05_95 for r in reports]
        mean_cov = float(np.mean(covers))
        assert 0.78 <= mean_cov <= 0.98, (
            f"mean [0.05, 0.95] coverage {mean_cov:.3f}, per-run {covers}")
        record("7", f"mean [0.05,0.95] band coverage {mean_cov:.3f} "
                    f"(within [0.78, 0.98]); per-run "
                    f"{[round(c, 3) for c in covers]}")


BITCOIN_CSV = os.environ.get("QUANTFORECAST_BITCOIN_CSV", "data/bitcoin.csv")


class TestCriterion8Crypto:
    @pytest.mark.skipif(not Path(BITCOIN_CSV).exists(),
                        reason="user-supplied Bitcoin CSV not present "
                               f"(looked for {BITCOIN_CSV}); criteria 1-7 "
                               "stand alone without external data")
    def test_bitcoin_multivariate_quantile_edlstm(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bitcoin_campaign")
        config = ExperimentConfig(
            name="bitcoin-acceptance", dataset="bitcoin", family="edlstm",
            quantile=True, strategy="multivariate", window=6, horizons=5,
            hidden1=100, hidden2=100, epochs=30, batch_size=64,
            learning_rate=1e-3, runs=5, base_seed=0,
            csv_path=BITCOIN_CSV, output_dir=str(out))
        aggregate = run_experiment(config)
        assert 0.008 <= aggregate.mean_rmse.mean <= 0.03
        record("8", f"Bitcoin multivariate quantile run: median mean RMSE "
                    f"{aggregate.mean_rmse.mean:.4f} in [0.008, 0.03]")


class TestCriterion9PipelineProperties:
    def test_window_count_normalization_split_and_determinism(self, tmp_path):
        from quantforecast.datapipe import (RawSeries, make_windows,
                                            normalize_and_split)
        rng = np.random.default_rng(77)

        # window count over 200 random geometry triples
        for _ in range(200):
            d = int(rng.integers(2, 12))
            m = int(rng.integers(1, 12))
            t_len = int(rng.integers(d + m + 1, d + m + 50))
            series = RawSeries("s", ["value"], rng.normal(size=t_len))
            assert make_windows(series, d, m).count == t_len - d - m + 1

        # normalization matches the series' min-max map at 1e-12
        values = rng.uniform(3.0, 11.0, size=150)
        series = RawSeries("s", ["value"], values)
        ds = normalize_and_split(make_windows(series, 6, 4), seed=1)
        scaled = (values - values.min()) / (values.max() - values.min())
        inputs = np.array([scaled[i:i + 6] for i in range(ds.count)])
        targets = np.array([scaled[i + 6:i + 10] for i in range(ds.count)])
        assert np.max(np.abs(ds.inputs[:, :, 0] - inputs)) < 1e-12
        assert np.max(np.abs(ds.targets - targets)) < 1e-12

        # split partition property
        n = ds.count
        assert len(ds.train_idx) == round(0.8 * n)
        merged = sorted(np.concatenate([ds.train_idx, ds.test_idx]).tolist())
        assert merged == list(range(n))

        # identical-seed campaigns are byte-identical
        def campaign(path):
            config = ExperimentConfig(
                name="det", dataset="mackey-glass", family="linear",
                quantile=True, runs=3, base_seed=0, data_steps=240,
                window=5, horizons=3, linear_iterations=200,
                output_dir=str(path))
            run_experiment(config)
            return (path / "aggregate.csv").read_bytes()

        assert campaign(tmp_path / "a") == campaign(tmp_path / "b")
        record("9", "window-count formula (200 triples), min-max 1e-12, "
                    "80:20 partition, byte-identical replay")


class TestCriterion10BaselineSanity:
    def test_ols_and_median_quantile_fit_agree(self):
        from quantforecast.datapipe import WindowedDataset
        rng = np.random.default_rng(5)
        n, d = 400, 3
        inputs = rng.uniform(-1.0, 1.0, size=(n, d, 1))
        slope = np.array([0.8, -0.5, 1.2])
        noise = rng.uniform(-0.25, 0.25, size=n)  # symmetric about 0
        targets = (inputs[:, :, 0] @ slope + 0.1 + noise)[:, None]
        dataset = WindowedDataset(
            inputs=inputs, targets=targets, train_idx=np.arange(n),
            test_idx=np.arange(0), split_seed=0)
        ols = fit_ols(dataset)
        quant = fit_quantile_linear(dataset, (0.5,), iterations=8000,
                                    learning_rate=0.05)
        rel = np.abs(quant.coef[:, 0, 0] - ols.coef[:, 0, 0]) / \
            np.abs(ols.coef[:, 0, 0])
        assert np.max(rel) < 0.05, f"coefficient errors {rel}"
        record("10", f"median-quantile vs closed-form OLS coefficients agree "
                     f"to {100 * float(np.max(rel)):.2f}% (< 5%)")


def test_zz_summary():
    """Prints the final per-criterion summary (runs last by name)."""
    print("\n" + "=" * 72)
    print("acceptance summary")
    for key in sorted(RESULTS, key=lambda s: int(s)):
        print(f"  criterion {key:>2}: PASS  {RESULTS[key]}")
    print("=" * 72)
