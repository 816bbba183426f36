"""Per-horizon and per-quantile RMSE, band diagnostics, and multi-run
aggregation with 95% confidence half-widths."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyEval, MissingMedian, MissingQuantile, ShapeError
from .losses import check_quantiles

# Normal 97.5% point: half-width = 1.96 * sample std / sqrt(R).
_Z_95 = 1.96


def rmse(targets: np.ndarray, predictions: np.ndarray) -> tuple[float, np.ndarray]:
    """Root mean squared error per horizon plus the mean over horizons.

    Inputs are (n, m) aligned arrays; (n,) vectors are treated as one
    horizon.
    """
    y = np.asarray(targets, dtype=np.float64)
    y_hat = np.asarray(predictions, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError("rmse", y.shape, y_hat.shape)
    if y.size == 0:
        raise EmptyEval("rmse over an empty array")
    if y.ndim == 1:
        y = y[:, None]
        y_hat = y_hat[:, None]
    per_horizon = np.sqrt(np.mean((y - y_hat) ** 2, axis=0))
    return float(per_horizon.mean()), per_horizon


def quantile_rmse(targets: np.ndarray, predictions: np.ndarray,
                  quantiles) -> np.ndarray:
    """Mean-over-horizons RMSE of each quantile slice against the same
    targets; requires the median level to be present."""
    qs = check_quantiles(quantiles)
    if 0.5 not in qs:
        raise MissingMedian(f"0.5 not in quantile set {qs}")
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if p.ndim != 3 or y.shape != p.shape[:2] or p.shape[2] != len(qs):
        raise ShapeError("quantile-rmse", y.shape, p.shape)
    return np.array([rmse(y, p[:, :, j])[0] for j in range(len(qs))])


def coverage(targets: np.ndarray, predictions: np.ndarray, q_lo: float,
             q_hi: float, quantiles) -> float:
    """Fraction of target cells inside the [q_lo, q_hi] prediction band."""
    qs = check_quantiles(quantiles)
    if not q_lo < q_hi:
        raise ConfigError(f"need q_lo < q_hi, got {q_lo} >= {q_hi}")
    for q in (q_lo, q_hi):
        if q not in qs:
            raise MissingQuantile(f"quantile {q} not in set {qs}")
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if y.size == 0:
        raise EmptyEval("coverage over an empty array")
    lo = p[:, :, qs.index(q_lo)]
    hi = p[:, :, qs.index(q_hi)]
    return float(np.mean((y >= lo) & (y <= hi)))


def crossing_rate(predictions: np.ndarray, quantiles) -> float:
    """Fraction of (window, horizon) cells where any lower-quantile
    prediction exceeds the next higher one."""
    qs = check_quantiles(quantiles)
    if len(qs) < 2:
        raise ConfigError("crossing rate needs at least two quantile levels")
    p = np.asarray(predictions, dtype=np.float64)
    crossed = p[:, :, :-1] > p[:, :, 1:]
    return float(np.mean(np.any(crossed, axis=2)))


@dataclass
class RunReport:
    """Metrics of one trained run on its test split.

    mean_rmse is the mean over horizons of the median-quantile per-horizon
    RMSE; for single-level (classic) models the only level is the median.
    """
    seed: int
    quantiles: tuple[float, ...]
    per_horizon_rmse: np.ndarray
    per_quantile_rmse: np.ndarray
    mean_rmse: float
    wall_seconds: float
    coverage_05_95: float | None = None
    crossing: float | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "quantiles": list(self.quantiles),
            "per_horizon_rmse": [float(v) for v in self.per_horizon_rmse],
            "per_quantile_rmse": [float(v) for v in self.per_quantile_rmse],
            "mean_rmse": self.mean_rmse,
            "wall_seconds": self.wall_seconds,
            "coverage_05_95": self.coverage_05_95,
            "crossing": self.crossing,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        return cls(seed=d["seed"], quantiles=tuple(d["quantiles"]),
                   per_horizon_rmse=np.asarray(d["per_horizon_rmse"]),
                   per_quantile_rmse=np.asarray(d["per_quantile_rmse"]),
                   mean_rmse=d["mean_rmse"], wall_seconds=d["wall_seconds"],
                   coverage_05_95=d.get("coverage_05_95"),
                   crossing=d.get("crossing"))


def make_run_report(seed: int, targets: np.ndarray, predictions: np.ndarray,
                    quantiles, wall_seconds: float) -> RunReport:
    """Evaluate one run's (batch, m, K) test predictions."""
    qs = check_quantiles(quantiles)
    p = np.asarray(predictions, dtype=np.float64)
    if 0.5 in qs:
        median_idx = qs.index(0.5)
    elif len(qs) == 1:
        median_idx = 0
    else:
        raise MissingMedian(f"0.5 not in quantile set {qs}")
    mean_rmse, per_horizon = rmse(targets, p[:, :, median_idx])
    if len(qs) > 1:
        per_quantile = quantile_rmse(targets, p, qs)
        cov = coverage(targets, p, qs[0], qs[-1], qs)
        crossing = crossing_rate(p, qs)
    else:
        per_quantile = np.array([mean_rmse])
        cov = None
        crossing = None
    return RunReport(seed=seed, quantiles=qs, per_horizon_rmse=per_horizon,
                     per_quantile_rmse=per_quantile, mean_rmse=mean_rmse,
                     wall_seconds=wall_seconds, coverage_05_95=cov,
                     crossing=crossing)


@dataclass
class AggregateCell:
    mean: float
    half_width: float


@dataclass
class AggregateReport:
    """Across-run means with 95% confidence half-widths 1.96*s/sqrt(R)."""
    runs_requested: int
    runs_completed: int
    quantiles: tuple[float, ...]
    mean_rmse: AggregateCell
    per_horizon: list[AggregateCell]
    per_quantile: list[AggregateCell]
    config_hash: str = ""
    failures: list[dict] = field(default_factory=list)


def _cell(samples: np.ndarray) -> AggregateCell:
    samples = np.asarray(samples, dtype=np.float64)
    r = samples.shape[0]
    if r < 2:
        return AggregateCell(mean=float(samples.mean()), half_width=0.0)
    s = samples.std(ddof=1)
    return AggregateCell(mean=float(samples.mean()),
                         half_width=float(_Z_95 * s / np.sqrt(r)))


def aggregate_runs(reports: list[RunReport], runs_requested: int | None = None,
                   config_hash: str = "",
                   failures: list[dict] | None = None) -> AggregateReport:
    """Reduce run reports to per-cell mean and half-width. A single run
    yields zero half-widths (warned, since no spread is estimable)."""
    if not reports:
        raise EmptyEval("no completed runs to aggregate")
    if runs_requested is None:
        runs_requested = len(reports)
    if len(reports) == 1:
        warnings.warn("aggregating a single run: half-widths reported as 0",
                      stacklevel=2)
    qs = reports[0].quantiles
    horizons = len(reports[0].per_horizon_rmse)
    for rep in reports:
        if rep.quantiles != qs or len(rep.per_horizon_rmse) != horizons:
            raise ConfigError("run reports disagree on quantiles/horizons")
    mean_cell = _cell(np.array([r.mean_rmse for r in reports]))
    horizon_cells = [_cell(np.array([r.per_horizon_rmse[j] for r in reports]))
                     for j in range(horizons)]
    quantile_cells = [_cell(np.array([r.per_quantile_rmse[j] for r in reports]))
                      for j in range(len(qs))]
    return AggregateReport(
        runs_requested=runs_requested, runs_completed=len(reports),
        quantiles=qs, mean_rmse=mean_cell, per_horizon=horizon_cells,
        per_quantile=quantile_cells, config_hash=config_hash,
        failures=failures or [])
