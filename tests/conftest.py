import os

# Pin BLAS threading before numpy loads so timing and bitwise-determinism
# checks see a stable execution environment.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from quantforecast.datapipe import (MackeyGlassParams, gen_mackey_glass,  # noqa: E402
                                    make_windows, normalize_and_split)


@pytest.fixture(scope="session")
def mg_series():
    """Short Mackey-Glass series shared by pipeline-level tests."""
    return gen_mackey_glass(MackeyGlassParams(steps=400), seed=11)


@pytest.fixture(scope="session")
def mg_dataset(mg_series):
    return normalize_and_split(make_windows(mg_series, 5, 3), seed=5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def quoted_market_csv(tmp_path):
    """A 60-row market CSV whose header cells are quoted, as exchange
    exports write them; the prices are a seeded random walk."""
    rng = np.random.default_rng(3)
    close = 100.0 + np.cumsum(rng.normal(size=60))
    lines = ['"Date","High","Low","Open","Close","Volume"']
    lines += [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d},"
              f"{c + 1.0 + rng.random()},{c - 1.0 - rng.random()},"
              f"{c + rng.normal(scale=0.3)},{c},{1000.0 + 100.0 * rng.random()}"
              for i, c in enumerate(close)]
    path = tmp_path / "quoted.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
