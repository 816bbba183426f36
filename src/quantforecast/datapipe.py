"""Dataset acquisition, sliding windows, normalisation and the 80:20 split.

The dataset list is two tables, GENERATORS and FILE_SCHEMAS. Each stage
has its own type: the generators and load_csv give a RawSeries, which
carries its dataset's name; make_windows gives Windows, in series units
with the series range; normalize_and_split gives a WindowedDataset, scaled
and split, which holds only arrays and the split seed.

CSV schemas (header row required, rows re-sorted ascending by date; given
no schema, load_csv reads a header holding the five market columns as
market and any other header as univariate):

  market:     Date, High, Low, Open, Close, Volume  — extra columns such as
              serial numbers, names, symbols and market capitalisation are
              dropped; exactly the five price/volume features are kept.
  univariate: Date, Value

Date cells may be ISO (YYYY-MM-DD), day-first (D/M/YYYY), or a plain
integer step index (used by generated series).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .engine import SeededRng
from .errors import (ConfigError, DegenerateFeature, InsufficientData,
                     NumericalError, ParseError, SchemaError)

MARKET_FEATURES = ("high", "low", "open", "close", "volume")
_SCHEMA_COLUMNS = {"market": MARKET_FEATURES, "univariate": ("value",)}

# The generators' starting state: the Mackey-Glass pre-history level, the
# Lorenz initial state, and the half-width of the seeded uniform jitter
# added to either.
MACKEY_GLASS_HISTORY = 1.2
LORENZ_INITIAL = (0.0, 1.0, 1.05)
JITTER = 0.01


@dataclass
class RawSeries:
    """A named multivariate series: T observations of f features."""
    name: str
    columns: list[str]
    values: np.ndarray  # (T, f) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if not np.all(np.isfinite(self.values)):
            raise NumericalError(f"series {self.name!r} contains "
                                 f"non-finite values")
        if len(self.columns) != self.values.shape[1]:
            raise ValueError("column names do not match value width")

    @property
    def length(self) -> int:
        return self.values.shape[0]


def _check_finite(**settings: float) -> None:
    """Raise ConfigError naming every setting that is NaN or infinite."""
    bad = [f"{name}={value!r}" for name, value in settings.items()
           if not math.isfinite(value)]
    if bad:
        raise ConfigError(f"generator settings must be finite, got "
                          f"{', '.join(bad)}")


@dataclass
class MackeyGlassParams:
    a: float = 0.2
    b: float = 0.1
    delay: int = 10
    steps: int = 3000
    dt: float = 1.0

    def __post_init__(self):
        _check_finite(a=self.a, b=self.b, dt=self.dt)
        if self.delay < 1 or self.steps < self.delay + 2 or self.dt <= 0:
            raise ConfigError("need delay >= 1, steps >= delay + 2 and "
                              "dt > 0")


@dataclass
class LorenzParams:
    rho: float = 28.0
    sigma: float = 10.0
    beta: float = 2.667
    steps: int = 10000
    dt: float = 0.01
    component: str = "x"

    def __post_init__(self):
        _check_finite(rho=self.rho, sigma=self.sigma, beta=self.beta,
                      dt=self.dt)
        if self.steps < 2 or self.dt <= 0:
            raise ConfigError("need steps >= 2 and dt > 0")
        if self.component not in ("x", "y", "z"):
            raise ConfigError(f"unknown component {self.component!r}")


def gen_mackey_glass(params: MackeyGlassParams, seed: int) -> RawSeries:
    """Delay-differential series dx/dt = a*x(t-delay)/(1 + x(t-delay)^10)
    - b*x(t), integrated by RK4 on the delay grid (the delayed term is held
    constant over each step, so its growth term is computed once per step).
    The pre-history is the constant level plus a seeded uniform jitter, so
    the seed pins the whole trajectory. Steps run on Python floats; a
    growth term that overflows raises NumericalError naming the step."""
    rng = SeededRng(seed)
    delay_steps = max(1, int(round(params.delay / params.dt)))
    history = MACKEY_GLASS_HISTORY + rng.uniform(-JITTER, JITTER,
                                                 delay_steps + 1)
    # The pre-history, then the series from its first point (the last
    # pre-history value): step t reads its delayed value at path[t].
    path = history.tolist()
    x = path[-1]
    a, b, dt = params.a, params.b, params.dt
    half = 0.5 * dt
    for t in range(params.steps - 1):
        delayed = path[t]
        try:
            growth = a * delayed / (1.0 + delayed ** 10)
        except OverflowError:
            raise NumericalError(f"series 'mackey-glass' overflows at step "
                                 f"{t}: delayed value {delayed!r}") from None
        k1 = growth - b * x
        k2 = growth - b * (x + half * k1)
        k3 = growth - b * (x + half * k2)
        k4 = growth - b * (x + dt * k3)
        x = x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        path.append(x)
    return RawSeries(name="mackey-glass", columns=["value"],
                     values=path[delay_steps:])


def gen_lorenz(params: LorenzParams, seed: int) -> RawSeries:
    """RK4 integration of the Lorenz system at fixed dt, stepped on Python
    floats; returns the selected component, and raises NumericalError if
    any component goes non-finite. The seed jitters the initial state."""
    rng = SeededRng(seed)
    state = np.asarray(LORENZ_INITIAL, dtype=np.float64)
    x, y, z = (state + rng.uniform(-JITTER, JITTER, 3)).tolist()
    rho, sigma, beta, dt = params.rho, params.sigma, params.beta, params.dt
    half = 0.5 * dt

    def deriv(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    rows = [(x, y, z)]
    for _ in range(params.steps - 1):
        k1x, k1y, k1z = deriv(x, y, z)
        k2x, k2y, k2z = deriv(x + half * k1x, y + half * k1y, z + half * k1z)
        k3x, k3y, k3z = deriv(x + half * k2x, y + half * k2y, z + half * k2z)
        k4x, k4y, k4z = deriv(x + dt * k3x, y + dt * k3y, z + dt * k3z)
        x = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        z = z + dt * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        rows.append((x, y, z))
    out = np.array(rows)
    if not np.isfinite(out).all():
        raise NumericalError("series 'lorenz' contains non-finite values")
    return RawSeries(name=f"lorenz-{params.component}", columns=["value"],
                     values=out[:, "xyz".index(params.component)])


# Generated datasets: name -> (parameter class, generator(params, seed)).
GENERATORS = {"mackey-glass": (MackeyGlassParams, gen_mackey_glass),
              "lorenz": (LorenzParams, gen_lorenz)}
# Datasets read from a CSV file: name -> schema, None to pick it from the
# header row.
FILE_SCHEMAS = {"bitcoin": "market", "ethereum": "market",
                "sunspot": "univariate", "csv": None}


def crop(series: RawSeries, limit: int | None = None,
         offset: int = 0) -> RawSeries:
    """The observations from offset on, optionally truncated to a row
    limit. Offsetting past the warm-up transient is conventional for
    chaotic generators."""
    stop = None if limit is None else offset + limit
    return RawSeries(name=series.name, columns=list(series.columns),
                     values=series.values[offset:stop].copy())


_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y", "%Y-%m-%d %H:%M:%S")


def _parse_date_key(cell: str, row: int):
    cell = cell.strip()
    # An integer cell cannot match a date format: each has a -, / or :
    # between its fields.
    try:
        return int(cell)
    except ValueError:
        pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(cell, fmt)
        except ValueError:
            continue
    raise ParseError(f"unparseable date {cell!r}", row)


def _parse_float(cell: str, column: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"unparseable value {cell!r} in column {column!r}",
                         row) from None


def load_csv(path, schema: str | None = None,
             name: str | None = None) -> RawSeries:
    """Read a series from CSV per the schemas documented above; without a
    schema, pick it from the header row."""
    if schema is not None and schema not in _SCHEMA_COLUMNS:
        raise ConfigError(f"unknown csv schema {schema!r}")

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        lookup = {h.strip().lower(): i for i, h in enumerate(header)}
        if schema is None:
            schema = ("market" if set(MARKET_FEATURES) <= lookup.keys()
                      else "univariate")
        wanted = ["date", *_SCHEMA_COLUMNS[schema]]
        missing = [c for c in wanted if c not in lookup]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")

        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise ParseError(f"{len(row)} cells under a "
                                 f"{len(header)}-column header", line_no)
            key = _parse_date_key(row[lookup["date"]], line_no)
            values = [_parse_float(row[lookup[c]], c, line_no)
                      for c in wanted[1:]]
            rows.append((key, values, line_no))

    if not rows:
        raise SchemaError(f"{path}: no data rows")
    # Integer and date keys cannot be ordered against each other.
    first_is_int = isinstance(rows[0][0], int)
    for key, _, line_no in rows[1:]:
        if isinstance(key, int) != first_is_int:
            raise ParseError("date format differs from first row", line_no)
    rows.sort(key=lambda r: r[0])
    values = np.array([r[1] for r in rows], dtype=np.float64)
    if not np.all(np.isfinite(values)):
        bad = rows[int(np.argwhere(~np.isfinite(values))[0][0])][2]
        raise ParseError("non-finite value", bad)
    return RawSeries(name=name or str(path), columns=list(wanted[1:]),
                     values=values)


@dataclass
class Windows:
    """Aligned (input window, target vector) pairs in series units.

    inputs[i] covers series rows i .. i+d-1 over all features; targets[i]
    covers rows i+d .. i+d+m-1 of the target column. series_min and
    series_max are each feature's range over the whole raw series.
    """
    inputs: np.ndarray   # (N, d, f)
    targets: np.ndarray  # (N, m)
    window: int
    horizons: int
    feature_names: list[str]
    target_index: int
    series_min: np.ndarray
    series_max: np.ndarray

    @property
    def count(self) -> int:
        return self.inputs.shape[0]


@dataclass
class WindowedDataset:
    """Min-max scaled windows split into train and test by a seeded
    shuffle of window indices; normalize_and_split makes every array
    read-only."""
    inputs: np.ndarray   # (N, d, f)
    targets: np.ndarray  # (N, m)
    train_idx: np.ndarray
    test_idx: np.ndarray
    split_seed: int

    @property
    def count(self) -> int:
        return self.inputs.shape[0]

    @property
    def features(self) -> int:
        return self.inputs.shape[2]

    @property
    def train_inputs(self) -> np.ndarray:
        return self.inputs[self.train_idx]

    @property
    def train_targets(self) -> np.ndarray:
        return self.targets[self.train_idx]

    @property
    def test_inputs(self) -> np.ndarray:
        return self.inputs[self.test_idx]

    @property
    def test_targets(self) -> np.ndarray:
        return self.targets[self.test_idx]


def target_column(columns: list[str]) -> int:
    """Index of the prediction target: "close" when present, otherwise the
    first column."""
    return columns.index("close") if "close" in columns else 0


def check_geometry(window: int, horizons: int) -> None:
    """A window spans at least two steps and predicts at least one."""
    if window < 2 or horizons < 1:
        raise ConfigError(f"need window >= 2 and horizons >= 1, "
                          f"got d={window} m={horizons}")


def make_windows(series: RawSeries, window: int, horizons: int) -> Windows:
    """Slide a (window, horizons) frame over the series: N = T - d - m + 1
    aligned pairs. Inputs keep all features; targets take the
    target_column."""
    d, m = int(window), int(horizons)
    check_geometry(d, m)
    t_len = series.length
    if t_len <= d + m:
        raise InsufficientData(
            f"series length {t_len} too short for window {d} + horizons {m}")
    target_index = target_column(series.columns)

    # Window i covers rows i .. i+d-1; its targets are rows i+d .. i+d+m-1.
    inputs = sliding_window_view(series.values[:t_len - m], d, axis=0)
    inputs = inputs.transpose(0, 2, 1).copy()
    targets = sliding_window_view(series.values[d:, target_index], m).copy()
    return Windows(
        inputs=inputs, targets=targets, window=d, horizons=m,
        feature_names=list(series.columns), target_index=target_index,
        series_min=series.values.min(axis=0),
        series_max=series.values.max(axis=0))


def normalize_and_split(windows: Windows, seed: int,
                        train_fraction: float = 0.8) -> WindowedDataset:
    """Min-max scale every feature to [0, 1], then split window indices by
    a seeded shuffle, train share round(train_fraction * N).

    Scaling is fitted on the whole raw series (pipeline order: normalise,
    then split). The split dataset's arrays are read-only.
    """
    n = windows.count
    rng = SeededRng(seed)
    order = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])

    lo, hi = windows.series_min, windows.series_max
    span = hi - lo
    for j, name in enumerate(windows.feature_names):
        if span[j] == 0.0:
            raise DegenerateFeature(f"feature {name!r} has zero range")

    inputs = (windows.inputs - lo) / span
    t_lo = lo[windows.target_index]
    t_span = span[windows.target_index]
    targets = (windows.targets - t_lo) / t_span
    for arr in (inputs, targets, train_idx, test_idx):
        arr.flags.writeable = False
    return WindowedDataset(inputs=inputs, targets=targets,
                           train_idx=train_idx, test_idx=test_idx,
                           split_seed=int(seed))


def write_series_csv(path, series: RawSeries) -> None:
    """Write a one-column series in the univariate schema, Date,Value, with
    the step number as its date; a wider series raises ValueError."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", "Value"])
        writer.writerows((i, repr(v))
                         for i, (v,) in enumerate(series.values.tolist()))
