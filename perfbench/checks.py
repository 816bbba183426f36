"""Correctness checks, each computed apart from quantforecast (plain numpy)
or from a property the method must have. Every check returns a list of
problems; an empty list is a pass."""

from __future__ import annotations

import csv

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Z_95 = 1.96
REL_TOL = 1e-12


def _close(a, b, rtol: float = REL_TOL, atol: float = 1e-15) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def pinball_cells(targets: np.ndarray, predictions: np.ndarray,
                  quantiles) -> np.ndarray:
    """Pinball loss of every (window, horizon, level) cell."""
    q = np.asarray(quantiles, dtype=np.float64).reshape(1, 1, -1)
    u = targets[:, :, None] - predictions
    return np.maximum(q * u, (q - 1.0) * u)


def median_index(quantiles) -> int:
    qs = tuple(quantiles)
    return qs.index(0.5) if 0.5 in qs else 0


def horizon_rmse(targets: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Per-horizon RMSE of (n, m) predictions."""
    return np.sqrt(np.mean((targets - predictions) ** 2, axis=0))


# --- datapipe ----------------------------------------------------------------

def check_windows(values: np.ndarray, target_index: int, window: int,
                  horizons: int, inputs: np.ndarray,
                  targets: np.ndarray) -> list[str]:
    """make_windows output equals a sliding_window_view construction."""
    d, m = window, horizons
    n = values.shape[0] - d - m + 1
    want_in = sliding_window_view(values, d, axis=0)[:n].transpose(0, 2, 1)
    want_tg = sliding_window_view(values[d:, target_index], m)[:n]
    problems = []
    if inputs.shape != want_in.shape or not np.array_equal(inputs, want_in):
        problems.append("window inputs differ from sliding_window_view")
    if targets.shape != want_tg.shape or not np.array_equal(targets, want_tg):
        problems.append("window targets differ from sliding_window_view")
    return problems


def check_split(count: int, train_idx: np.ndarray, test_idx: np.ndarray,
                train_fraction: float) -> list[str]:
    """The split is disjoint, covers every window and has the train share."""
    problems = []
    if np.intersect1d(train_idx, test_idx).size:
        problems.append("train and test windows overlap")
    both = np.union1d(train_idx, test_idx)
    if not np.array_equal(both, np.arange(count)):
        problems.append("split does not cover every window exactly once")
    if train_idx.size != int(round(train_fraction * count)):
        problems.append(f"{train_idx.size} training windows, expected "
                        f"round({train_fraction}*{count})")
    return problems


# --- evaluation and reports ----------------------------------------------------

def run_scores(targets: np.ndarray, predictions: np.ndarray,
               quantiles) -> dict:
    """Per-run scores recomputed from observed targets and predictions."""
    med = median_index(quantiles)
    per_horizon = horizon_rmse(targets, predictions[:, :, med])
    per_quantile = np.array([horizon_rmse(targets, predictions[:, :, j]).mean()
                             for j in range(predictions.shape[2])])
    return {"per_horizon_rmse": per_horizon,
            "per_quantile_rmse": per_quantile,
            "mean_rmse": float(per_horizon.mean()),
            "pinball": float(pinball_cells(targets, predictions,
                                           quantiles).mean())}


def check_run_report(scores: dict, report: dict) -> list[str]:
    """Recomputed scores match runs/run_<seed>.json."""
    problems = []
    for key in ("per_horizon_rmse", "per_quantile_rmse", "mean_rmse"):
        if not _close(scores[key], report[key]):
            problems.append(f"{key} differs from run_{report['seed']}.json")
    return problems


def check_pinball(scores: dict, program_pinball: float) -> list[str]:
    """The numpy pinball mean matches the program's own loss value."""
    if not _close(scores["pinball"], program_pinball):
        return [f"pinball {scores['pinball']!r} differs from the program's "
                f"{program_pinball!r}"]
    return []


def read_aggregate_csv(path) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {(row["metric"], row["step_or_quantile"]):
                (float(row["mean"]), float(row["ci_half_width"]))
                for row in csv.DictReader(fh)}


def _cell(samples) -> tuple[float, float]:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        return float(samples.mean()), 0.0
    return (float(samples.mean()),
            float(Z_95 * samples.std(ddof=1) / np.sqrt(samples.size)))


def check_aggregate(run_scores_list: list[dict], quantiles,
                    rows: dict) -> list[str]:
    """aggregate.csv holds the mean and the 1.96*s/sqrt(R) half-width of
    every recomputed per-run score."""
    want = {("mean_rmse", ""): _cell([s["mean_rmse"] for s in run_scores_list])}
    horizons = len(run_scores_list[0]["per_horizon_rmse"])
    for j in range(horizons):
        want[("horizon_rmse", f"step {j + 1}")] = _cell(
            [s["per_horizon_rmse"][j] for s in run_scores_list])
    for j, q in enumerate(quantiles):
        want[("quantile_rmse", repr(float(q)))] = _cell(
            [s["per_quantile_rmse"][j] for s in run_scores_list])
    problems = []
    for key, cell in want.items():
        got = rows.get(key)
        if got is None:
            problems.append(f"aggregate.csv lacks {key}")
        elif not _close(cell, got, rtol=1e-9, atol=1e-14):
            problems.append(f"aggregate.csv {key} = {got}, recomputed {cell}")
    if set(rows) - set(want):
        problems.append(f"aggregate.csv has extra rows {set(rows) - set(want)}")
    return problems


# --- training outcome ------------------------------------------------------------

def check_training_progress(epoch_losses) -> list[str]:
    if len(epoch_losses) < 2 or not epoch_losses[-1] < epoch_losses[0]:
        return [f"training loss did not fall: {list(epoch_losses)}"]
    return []


def check_beats_train_mean(train_targets: np.ndarray, targets: np.ndarray,
                           median_predictions: np.ndarray) -> list[str]:
    """Median RMSE below that of predicting the per-horizon train mean."""
    naive = horizon_rmse(targets, np.broadcast_to(
        train_targets.mean(axis=0), targets.shape)).mean()
    model = horizon_rmse(targets, median_predictions).mean()
    if not model < naive:
        return [f"test median RMSE {model:.4g} not below the train-mean "
                f"predictor's {naive:.4g}"]
    return []


def check_quantile_shares(targets: np.ndarray,
                          predictions: np.ndarray) -> list[str]:
    """The share of targets at or below each level's prediction rises with
    the level."""
    shares = np.mean(targets[:, :, None] <= predictions, axis=(0, 1))
    if not np.all(np.diff(shares) > 0):
        return [f"coverage shares do not rise with the level: {shares}"]
    return []


# --- baselines ------------------------------------------------------------------

def check_ols(x: np.ndarray, y: np.ndarray, coef: np.ndarray,
              intercept: np.ndarray) -> list[str]:
    """fit_ols coefficients match np.linalg.lstsq on the same design."""
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    theta, *_ = np.linalg.lstsq(aug, y, rcond=None)
    got = np.vstack([coef.reshape(x.shape[1], -1),
                     intercept.reshape(1, -1)])
    if not _close(got, theta, rtol=1e-6, atol=1e-8 * np.abs(theta).max()):
        return [f"OLS coefficients differ from lstsq by "
                f"{np.abs(got - theta).max():.3g}"]
    return []


def pinball_objective(x: np.ndarray, y: np.ndarray, coef: np.ndarray,
                      intercept: np.ndarray, quantiles) -> float:
    n, m, k = x.shape[0], y.shape[1], len(quantiles)
    pred = (x @ coef.reshape(x.shape[1], m * k)
            + intercept.ravel()).reshape(n, m, k)
    return float(pinball_cells(y, pred, quantiles).mean())


def check_quantile_linear(x: np.ndarray, y: np.ndarray, coef: np.ndarray,
                          intercept: np.ndarray, quantiles,
                          fit_trace) -> list[str]:
    """The objective at the returned coefficients equals fit_trace[-1] and
    is no greater than at the documented start point (zero weights,
    intercepts at the per-horizon train target mean)."""
    k = len(quantiles)
    final = pinball_objective(x, y, coef, intercept, quantiles)
    start = pinball_objective(
        x, y, np.zeros_like(coef),
        np.repeat(y.mean(axis=0), k).reshape(intercept.shape), quantiles)
    problems = []
    if not fit_trace or not _close(final, fit_trace[-1], rtol=1e-12):
        problems.append(f"objective {final!r} at the returned coefficients "
                        f"differs from fit_trace[-1]")
    if not final <= start:
        problems.append(f"objective {final!r} above its start {start!r}")
    return problems


# --- engine gradients -------------------------------------------------------------

def pick_entries(params: dict, per_block: int, rng: np.random.Generator
                 ) -> dict[str, list[int]]:
    """A seeded sample of flat indices from every parameter block."""
    return {name: sorted(rng.choice(p.data.size,
                                    size=min(per_block, p.data.size),
                                    replace=False).tolist())
            for name, p in params.items()}


def fd_gradient_check(loss_value, params: dict, grads: dict,
                      picks: dict[str, list[int]], h: float = 1e-6,
                      rtol: float = 1e-5, atol: float = 1e-9) -> list[str]:
    """Central finite differences against backward() gradients on the
    picked entries. loss_value() rebuilds the scalar loss from the current
    parameter data.

    A kink of the loss (pinball or relu) within h of an entry moves the
    central difference by at most half the gap between the two one-sided
    slopes, and the backward() subgradient lies between them; that gap is
    added to the tolerance. Where the loss is smooth the gap is h*|f''|.
    """
    problems = []
    f0 = loss_value()
    for name, indices in picks.items():
        flat = params[name].data.reshape(-1)
        analytic = np.asarray(grads[name]).reshape(-1)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value()
            flat[i] = orig - h
            fm = loss_value()
            flat[i] = orig
            gap = abs((fp - f0) - (f0 - fm)) / h
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[i]
            if abs(a - numeric) > (rtol * max(abs(a), abs(numeric)) + atol
                                   + gap / 2.0):
                problems.append(f"{name}[{i}]: backward {a!r}, "
                                f"finite difference {numeric!r}")
    return problems
