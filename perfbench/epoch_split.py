"""One training epoch per model family, untraced for its wall time and
traced for its split into forward, loss, backward and Adam, plus the
untraced test-set forward pass. Mackey-Glass, 3000 steps, d=5, m=10,
split seed 0, five quantile levels, batch 64, default hidden sizes.

    python3 perfbench/epoch_split.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

# perfbench pins BLAS to one thread before numpy loads.
from perfbench.bench import import_quantforecast  # noqa: E402
from perfbench.probes import Recorder  # noqa: E402


def epoch(qf, dataset, family: str) -> tuple[float, float]:
    """Seconds of one training epoch and of the test-set forward pass."""
    hidden1, hidden2 = qf.experiment.DEFAULT_HIDDEN[family]
    spec = qf.models.ModelSpec(
        family=family, features=1, window=5, horizons=10, hidden1=hidden1,
        hidden2=hidden2, quantiles=qf.losses.DEFAULT_QUANTILES)
    rng = qf.engine.SeededRng(0)
    model = qf.models.build_model(spec, rng.child(1))
    config = qf.training.TrainConfig(epochs=1, batch_size=64,
                                     learning_rate=1e-3)
    start = perf_counter()
    qf.training.train(model, dataset, config, rng.child(2))
    took = perf_counter() - start
    start = perf_counter()
    qf.models.forward_pass(model, dataset.test_inputs)
    return took, perf_counter() - start


def main() -> None:
    qf = import_quantforecast()
    series = qf.datapipe.gen_mackey_glass(
        qf.datapipe.MackeyGlassParams(steps=3000), 0)
    dataset = qf.datapipe.normalize_and_split(
        qf.datapipe.make_windows(series, 5, 10), seed=0)
    print("family    epoch_s  test_forward_s  | traced: forward_s  loss_s  "
          "backward_s  adam_s")
    for family in qf.models.FAMILIES:
        wall, test = epoch(qf, dataset, family)
        rec = Recorder(qf, trace=True)
        try:
            epoch(qf, dataset, family)
        finally:
            rec.close()
        total, _ = rec.span_totals()
        split = [total.get((name, ""), 0.0) for name in (
            "models.forward", "losses.loss", "engine.backward",
            "training.adam")]
        print(f"{family:9s} {wall:7.3f}  {test:14.3f}  |         "
              + "  ".join(f"{v:.3f}" for v in split))


if __name__ == "__main__":
    main()
