"""Experiment campaigns: R seeded runs, persisted reports and aggregate
CSVs.

Campaign layout under the output directory:

  config.json                resolved experiment configuration
  runs/run_<seed>.json       one RunReport per completed run
  failures.json              seeds that failed, with the error text
  aggregate.csv              long form: model, strategy, quantile flag,
                             metric, step-or-quantile, mean, ci_half_width
  table.csv                  wide per-horizon table (Mean, Step 1..Step m)
  per_horizon_rmse.csv       plot data: step, mean, ci_half_width
  traces/trace_<seed>.csv    first-horizon test trace: actual, per-level
                             predictions, in window order

Runs use seeds base_seed .. base_seed + runs - 1. Within a run, the seed
derives three independent streams: the shuffled 80:20 split (root), the
weight initialisation (child 1), and the batch shuffling (child 2).
"""

from __future__ import annotations

import csv
import json
import math
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, models
from .datapipe import (FILE_SCHEMAS, GENERATORS, RawSeries, check_geometry,
                       crop, load_csv, make_windows, normalize_and_split,
                       target_column)
from .engine import SeededRng
from .errors import ConfigError, EmptyEval, SchemaError
from .evaluation import (AggregateReport, RunReport, aggregate_runs,
                         make_run_report, median_index)
from .losses import DEFAULT_QUANTILES, check_quantiles
from .models import ModelSpec, build_model, forward_pass
from .training import TrainConfig, train

# The campaign families: the neural ones, trained by train(), and linear,
# fitted by baselines.
FAMILIES = (*models.FAMILIES, "linear")
STRATEGIES = ("univariate", "multivariate")
# The values each choice field of ExperimentConfig may take.
FIELD_CHOICES = {"family": FAMILIES, "dataset": (*GENERATORS, *FILE_SCHEMAS),
                 "strategy": STRATEGIES}

# Table of hidden sizes per family: market datasets follow the reference
# architecture table; generated/univariate benchmarks reuse the same sizes.
# convlstm has one LSTM stage, so it reads no hidden2.
DEFAULT_HIDDEN = {"lstm": (50, 50), "bdlstm": (50, 50), "edlstm": (100, 100),
                  "convlstm": (20, None)}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a campaign from its base seed."""
    name: str
    dataset: str
    family: str
    quantile: bool = True
    strategy: str = "univariate"
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    window: int | None = None
    horizons: int | None = None
    hidden1: int | None = None
    hidden2: int | None = None
    epochs: int | None = None
    batch_size: int | None = None
    learning_rate: float | None = None
    runs: int = 30
    base_seed: int = 0
    train_fraction: float = 0.8
    csv_path: str | None = None
    data_seed: int | None = None
    data_steps: int | None = None
    data_limit: int | None = None
    data_offset: int = 0
    linear_iterations: int | None = None
    workers: int = 1
    output_dir: str = "."

    def __post_init__(self):
        _check_field_types(self)
        for name, allowed in FIELD_CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.strategy == "multivariate" and (
                self.dataset in GENERATORS
                or FILE_SCHEMAS[self.dataset] == "univariate"):
            raise ConfigError(
                f"multivariate strategy needs a multi-feature dataset, "
                f"got {self.dataset!r}")
        # A None-default field holds a value only if the campaign reads it.
        reads = _read_settings(self)
        unread = [f.name for f in fields(self) if f.default is None
                  and f.name not in reads and getattr(self, f.name) is not None]
        if unread:
            raise ConfigError(f"family {self.family!r} on dataset "
                              f"{self.dataset!r} takes no {', '.join(unread)}")
        for name, default in reads.items():
            if getattr(self, name) is None:
                setattr(self, name, default)
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0 <= self.base_seed <= 2**64 - self.runs:
            raise ConfigError(f"run seeds from base seed {self.base_seed} "
                              f"must lie in [0, 2**64)")
        if self.data_seed is not None and not 0 <= self.data_seed < 2**64:
            raise ConfigError(f"data seed must lie in [0, 2**64), "
                              f"got {self.data_seed}")
        if self.data_limit is not None and self.data_limit < 1:
            raise ConfigError(f"data limit must be >= 1, "
                              f"got {self.data_limit}")
        if self.data_offset < 0:
            raise ConfigError(f"data offset must be >= 0, "
                              f"got {self.data_offset}")
        if self.linear_iterations is not None and self.linear_iterations < 1:
            raise ConfigError(f"linear iterations must be >= 1, "
                              f"got {self.linear_iterations}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train fraction must be in (0, 1)")
        if self.dataset in FILE_SCHEMAS and not self.csv_path:
            raise ConfigError(f"dataset {self.dataset!r} needs --csv-path")
        self.quantiles = check_quantiles(self.quantiles) if self.quantile \
            else (0.5,)
        median_index(self.quantiles)
        # Bad generator, geometry and training numbers fail before any run.
        _generator_params(self)
        check_geometry(self.window, self.horizons)
        if self.family != "linear":
            _model_spec(self, 1)
            _train_config(self)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["quantiles"] = list(self.quantiles)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown experiment config key(s): "
                              f"{', '.join(unknown)}")
        return cls(**d)


# Resolved once (about 0.5 ms); the type check and the CLI's flags read it.
FIELD_TYPES = typing.get_type_hints(ExperimentConfig)


def _conforms(value, hint) -> bool:
    """Whether value may stand in a field annotated hint: a bool only in a
    bool field, an int also in a float field, a list or tuple of numbers in
    a tuple[float, ...] field, None only where the hint allows it."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return (isinstance(value, (list, tuple))
                and all(_conforms(v, item) for v in value))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_field_types(config: ExperimentConfig) -> None:
    """Every field holds a value its annotation allows, and a float field
    a finite one, whether or not the campaign's family reads it."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not _conforms(value, FIELD_TYPES[f.name]):
            raise ConfigError(f"{f.name} must be {f.type}, got "
                              f"{type(value).__name__} {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def _read_settings(config: ExperimentConfig) -> dict:
    """The None-default fields that config's campaign reads, each with the
    value an unset one takes."""
    market = _schema(config) == "market"
    reads = {"window": 6 if market else 5, "horizons": 5 if market else 10,
             "data_limit": None}
    if config.dataset in GENERATORS:
        reads.update(data_seed=0, data_steps=None)
    else:
        reads.update(csv_path=None)
    if config.family == "linear":
        if config.quantile:  # the OLS fit has no iterations
            reads.update(linear_iterations=5000)
    else:
        hidden1, hidden2 = DEFAULT_HIDDEN[config.family]
        reads.update(hidden1=hidden1, epochs=100 if market else 300,
                     batch_size=TrainConfig.batch_size,
                     learning_rate=TrainConfig.learning_rate)
        if hidden2 is not None:
            reads["hidden2"] = hidden2
    return reads


def build_series(config: ExperimentConfig) -> RawSeries:
    """Materialise the configured dataset (generated series are pinned by
    data_seed and shared by every run in the campaign)."""
    if config.dataset in GENERATORS:
        generate = GENERATORS[config.dataset][1]
        series = generate(_generator_params(config), config.data_seed)
    else:
        series = load_csv(config.csv_path, schema=_schema(config),
                          name=config.dataset)
    if config.data_limit or config.data_offset:
        series = crop(series, config.data_limit, config.data_offset)
    if config.strategy == "univariate" and series.values.shape[1] > 1:
        col = target_column(series.columns)
        series = RawSeries(name=series.name, columns=[series.columns[col]],
                           values=series.values[:, col].copy())
    return series


def _generator_params(config: ExperimentConfig):
    """Parameters of a generated dataset's generator; None for a file."""
    if config.dataset not in GENERATORS:
        return None
    steps = {} if config.data_steps is None else {"steps": config.data_steps}
    return GENERATORS[config.dataset][0](**steps)


def _schema(config: ExperimentConfig) -> str | None:
    """The CSV schema a campaign reads: market under the multivariate
    strategy, else its dataset's own (None for a generated dataset, or
    for a csv whose header picks it)."""
    if config.strategy == "multivariate":
        return "market"
    return FILE_SCHEMAS.get(config.dataset)


def _model_spec(config: ExperimentConfig, features: int) -> ModelSpec:
    return ModelSpec(family=config.family, features=features,
                     window=config.window, horizons=config.horizons,
                     hidden1=config.hidden1, hidden2=config.hidden2,
                     quantiles=config.quantiles)


def _train_config(config: ExperimentConfig) -> TrainConfig:
    return TrainConfig(
        epochs=config.epochs, batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        loss="quantile" if config.quantile else "mse")


def run_single(config: ExperimentConfig, series: RawSeries,
               seed: int) -> tuple[RunReport, np.ndarray, np.ndarray]:
    """One seeded run: split, fit, evaluate. Returns the report plus the
    test targets and predictions (for traces)."""
    start = time.perf_counter()
    windows = make_windows(series, config.window, config.horizons)
    dataset = normalize_and_split(windows, seed=seed,
                                  train_fraction=config.train_fraction)

    if config.family == "linear":
        if config.quantile:
            fitted = baselines.fit_quantile_linear(
                dataset, config.quantiles,
                iterations=config.linear_iterations)
        else:
            fitted = baselines.fit_ols(dataset)
        predictions = baselines.predict(fitted, dataset.test_inputs)
    else:
        rng = SeededRng(seed)
        spec = _model_spec(config, dataset.features)
        model = build_model(spec, rng.child(1))
        train(model, dataset, _train_config(config), rng.child(2))
        predictions = forward_pass(model.frozen(), dataset.test_inputs).data

    targets = dataset.test_targets
    wall = time.perf_counter() - start
    report = make_run_report(seed, targets, predictions, config.quantiles,
                             wall_seconds=wall)
    return report, targets, predictions


def _pool_entry(args) -> tuple[int, RunReport | None, str | None]:
    """One seeded run with its files written, in this process or a worker.
    Returns (seed, report, None), or (seed, None, error text) for a failed
    run."""
    config, series, seed = args
    out_dir = Path(config.output_dir)
    try:
        report, targets, predictions = run_single(config, series, seed)
        _write_json(out_dir / "runs" / f"run_{seed}.json", report.to_dict())
        _write_trace(out_dir / "traces" / f"trace_{seed}.csv", config,
                     targets, predictions)
        return seed, report, None
    except Exception as exc:  # recorded, campaign continues
        return seed, None, f"{type(exc).__name__}: {exc}"


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the configured campaign and persist all artifacts. Failed
    runs are recorded and skipped; the aggregate covers completed runs."""
    # A campaign whose data fails to load leaves no directory behind.
    series = build_series(config)
    out_dir = Path(config.output_dir)
    for sub in ("runs", "traces"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", config.to_dict())

    seeds = list(range(config.base_seed, config.base_seed + config.runs))
    reports: list[RunReport] = []
    failures: list[dict] = []
    jobs = [(config, series, s) for s in seeds]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_pool_entry, jobs))
    else:
        results = map(_pool_entry, jobs)
    for seed, report, err in results:
        if err is None:
            reports.append(report)
        else:
            failures.append({"seed": seed, "error": err})

    if failures:
        _write_json(out_dir / "failures.json", failures)
    if not reports:
        raise EmptyEval(f"all {config.runs} runs failed; see failures.json")
    aggregate = aggregate_runs(reports, runs_requested=config.runs)
    emit_report(aggregate, "csv", out_dir,
                label=_label(config.family, config.strategy, config.quantile))
    return aggregate


def _label(family: str, strategy: str, quantile: bool) -> dict:
    return {"model": family, "strategy": strategy,
            "quantile": "yes" if quantile else "no"}


def campaign_label(runs_dir) -> dict | None:
    """The aggregate label of the campaign whose config.json sits beside
    runs_dir, or None when there is none. Only the family, strategy and
    quantile keys are read, so a config.json holding keys that
    ExperimentConfig no longer has still labels its runs."""
    path = Path(runs_dir).absolute().parent / "config.json"
    if not path.is_file():
        return None
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
        return _label(d["family"], d["strategy"], d["quantile"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: not a campaign config "
                          f"({type(exc).__name__}: {exc})") from None


def load_run_reports(runs_dir) -> list[RunReport]:
    """Re-read persisted per-run reports (for re-aggregation). A file that
    is not valid JSON, not a run report, or not on the first file's
    quantiles and horizon count raises SchemaError naming it."""
    paths = sorted(Path(runs_dir).glob("run_*.json"))
    reports = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            try:
                reports.append(RunReport.from_dict(json.load(fh)))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{p}: not a run report "
                                  f"({type(exc).__name__}: {exc})") from None
    shapes = [(r.quantiles, len(r.per_horizon_rmse)) for r in reports]
    for p, (qs, horizons) in zip(paths, shapes):
        if (qs, horizons) != shapes[0]:
            raise SchemaError(f"{p}: quantiles {qs} over {horizons} "
                              f"horizons, but {paths[0].name} has "
                              f"{shapes[0][0]} over {shapes[0][1]}")
    reports.sort(key=lambda r: r.seed)
    return reports


# --- report emission --------------------------------------------------------

def _fmt(v: float) -> str:
    # repr gives the shortest decimal string that round-trips float64
    return repr(float(v))


def emit_report(aggregate: AggregateReport, fmt: str, out_dir,
                label: dict | None = None) -> list[Path]:
    """Write the aggregate as the three campaign CSV tables; "csv" is the
    only format."""
    if fmt != "csv":
        raise ConfigError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)
    label = label or {"model": "", "strategy": "", "quantile": ""}
    out_dir.mkdir(parents=True, exist_ok=True)
    return [_write_aggregate_csv(out_dir / "aggregate.csv", aggregate, label),
            _write_wide_table(out_dir / "table.csv", aggregate),
            _write_plot_data(out_dir / "per_horizon_rmse.csv", aggregate)]


def _write_aggregate_csv(path: Path, agg: AggregateReport, label: dict) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "strategy", "quantile", "metric",
                         "step_or_quantile", "mean", "ci_half_width"])
        base = [label["model"], label["strategy"], label["quantile"]]
        writer.writerow(base + ["mean_rmse", "", _fmt(agg.mean_rmse.mean),
                                _fmt(agg.mean_rmse.half_width)])
        for j, cell in enumerate(agg.per_horizon, start=1):
            writer.writerow(base + ["horizon_rmse", f"step {j}",
                                    _fmt(cell.mean), _fmt(cell.half_width)])
        for q, cell in zip(agg.quantiles, agg.per_quantile):
            writer.writerow(base + ["quantile_rmse", _fmt(q),
                                    _fmt(cell.mean), _fmt(cell.half_width)])
    return path


def _write_wide_table(path: Path, agg: AggregateReport) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        steps = [f"Step {j}" for j in range(1, len(agg.per_horizon) + 1)]
        writer.writerow(["Mean"] + steps)
        writer.writerow(
            [f"{agg.mean_rmse.mean:.4f} +- {agg.mean_rmse.half_width:.4f}"]
            + [f"{c.mean:.4f} +- {c.half_width:.4f}" for c in agg.per_horizon])
    return path


def _write_plot_data(path: Path, agg: AggregateReport) -> Path:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_rmse", "ci_half_width"])
        for j, cell in enumerate(agg.per_horizon, start=1):
            writer.writerow([j, _fmt(cell.mean), _fmt(cell.half_width)])
    return path


def _write_trace(path: Path, config: ExperimentConfig, targets: np.ndarray,
                 predictions: np.ndarray) -> None:
    """First-horizon test trace: actual value and every quantile level."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["index", "actual"] + [f"q{q:g}" for q in config.quantiles]
        writer.writerow(header)
        for i in range(targets.shape[0]):
            row = [i, _fmt(targets[i, 0])]
            row += [_fmt(predictions[i, 0, j])
                    for j in range(len(config.quantiles))]
            writer.writerow(row)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)

