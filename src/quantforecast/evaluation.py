"""Per-horizon and per-quantile RMSE, band diagnostics, and multi-run
aggregation with 95% confidence half-widths."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyEval, MissingMedian, ShapeError
from .losses import check_quantiles

# Normal 97.5% point: half-width = 1.96 * sample std / sqrt(R).
_Z_95 = 1.96


@dataclass
class RunReport:
    """Metrics of one trained run on its test split.

    mean_rmse is the mean over horizons of the median-quantile per-horizon
    RMSE; for single-level (classic) models the only level is the median.
    coverage_05_95 is taken between the lowest and the highest level, and
    it and crossing are None for a single level.
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
        """Read a report written by to_dict (coverage_05_95 and crossing
        may be absent); a field of the wrong type or size raises TypeError
        or ValueError."""
        quantiles = tuple(float(q) for q in d["quantiles"])
        per_horizon = np.asarray(d["per_horizon_rmse"], dtype=np.float64)
        per_quantile = np.asarray(d["per_quantile_rmse"], dtype=np.float64)
        if (per_horizon.ndim != 1 or per_horizon.size == 0
                or per_quantile.shape != (len(quantiles),)):
            raise ValueError("need a non-empty per_horizon_rmse list and one "
                             "per_quantile_rmse value per quantile")
        optional = {key: None if d.get(key) is None else float(d[key])
                    for key in ("coverage_05_95", "crossing")}
        return cls(seed=operator.index(d["seed"]), quantiles=quantiles,
                   per_horizon_rmse=per_horizon,
                   per_quantile_rmse=per_quantile,
                   mean_rmse=float(d["mean_rmse"]),
                   wall_seconds=float(d["wall_seconds"]), **optional)


def median_index(quantiles: tuple[float, ...]) -> int:
    """Where the 0.5 level, the one a run report scores, sits in a
    checked quantile set."""
    if 0.5 not in quantiles:
        raise MissingMedian(f"quantile set {quantiles} must include 0.5, "
                            f"the level the run reports score")
    return quantiles.index(0.5)


def make_run_report(seed: int, targets: np.ndarray, predictions: np.ndarray,
                    quantiles, wall_seconds: float) -> RunReport:
    """Score one run's (n, m, K) test predictions against its (n, m)
    targets: per level, the RMSE of each horizon over the n windows; the
    median level's per-horizon RMSE and its mean; and, for K > 1, the share
    of cells inside the outer band and the share of (window, horizon) cells
    where a level's prediction exceeds the next level's."""
    qs = check_quantiles(quantiles)
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if p.ndim != 3 or y.shape != p.shape[:2] or p.shape[2] != len(qs):
        raise ShapeError("run-report", y.shape, p.shape)
    if y.size == 0:
        raise EmptyEval("run report over an empty test set")
    median = median_index(qs)
    # One (n, m) reduction per level: reducing a broadcast (n, m, K) error
    # array over windows sums in another order when m = 1, and the scores
    # then differ in the last bit.
    per_level = [np.sqrt(np.mean((y - p[:, :, j]) ** 2, axis=0))
                 for j in range(len(qs))]
    per_quantile = np.array([float(r.mean()) for r in per_level])
    cov = crossing = None
    if len(qs) > 1:
        cov = float(np.mean((y >= p[:, :, 0]) & (y <= p[:, :, -1])))
        crossing = float(np.mean(np.any(p[:, :, :-1] > p[:, :, 1:], axis=2)))
    return RunReport(seed=seed, quantiles=qs,
                     per_horizon_rmse=per_level[median],
                     per_quantile_rmse=per_quantile,
                     mean_rmse=float(per_quantile[median]),
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


def _cell(samples: np.ndarray) -> AggregateCell:
    samples = np.asarray(samples, dtype=np.float64)
    r = samples.shape[0]
    if r < 2:
        return AggregateCell(mean=float(samples.mean()), half_width=0.0)
    s = samples.std(ddof=1)
    return AggregateCell(mean=float(samples.mean()),
                         half_width=float(_Z_95 * s / np.sqrt(r)))


def aggregate_runs(reports: list[RunReport],
                   runs_requested: int | None = None) -> AggregateReport:
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
        per_quantile=quantile_cells)
