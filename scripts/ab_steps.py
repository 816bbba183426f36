#!/usr/bin/env python3
"""Step-interleaved A/B timing of two checkouts in one process.

    python3 scripts/ab_steps.py A_CHECKOUT B_CHECKOUT [--family edlstm]
        [--loss quantile] [--steps 300] [--batch 64]
    python3 scripts/ab_steps.py A_CHECKOUT B_CHECKOUT \\
        --family quantile-linear --steps 40

Each checkout's `src/quantforecast` is imported under its own package
name (`qf_a`, `qf_b`). Every import inside the package is relative, so
the two copies share only numpy. BLAS is pinned to one thread before
numpy loads.

Both sides build the same model (the family's default hidden sizes) from
the same seed on the same Mackey-Glass split (3000 steps, d=5, m=10,
split seed 0) and take the same batches. Steps alternate A then B, then
B then A, so neither side always runs first and both see the same drift
of a shared host. A step is one training step of a model family
(`models.forward_pass`, the public loss `losses.quantile_loss_batch` at
the default quantile levels or `losses.mse_loss_batch`, backward, Adam),
or one whole 30-iteration quantile-linear fit at the levels 0.05, 0.5
and 0.95.

After the timed steps and the extra step, each side predicts the 597
test windows of the split once: a neural family through
`models.forward_pass(model.frozen(), ...)`, quantile-linear through
`baselines.predict`.

Prints one JSON object: ms per step and the median minor page faults
per step of each side, the A/B ratio of the total and of the median step
time, each side's tracemalloc peak over one extra, untimed step
(`*_step_peak_mb`, in MiB), and whether the two sides' parameters stayed
bitwise equal after it; then each side's tracemalloc peak and minor page
faults over its prediction (`*_predict_peak_mb`, `*_predict_minor_faults`)
and whether the two predictions are bitwise equal. When the two sides'
median minor faults per step differ, it also prints one warning line on
stderr (see the caveat below).

Caveat: both sides share one process and so one glibc heap, and each
side's allocations change where the other's arrays land. When the two
sides' `*_minor_faults_per_step` differ, the time ratio may not hold in
separate processes: confirm it with alternating `perfbench` pairs. The
value-free tape records, which free the forward arrays no backward
closure reads (bitwise equal to the code before them), read 1.17-1.22
here for edlstm over 300 steps, with 1253 minor faults per step before them
against 0 after; yet in ten alternating `mg-edlstm-quantile` pairs their
`train_windows_per_s` rose by only 3%, inside the spread between the
quartiles of the runs before them, while `peak_rss_mb` fell from 67.3
to 62.2 MB.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

MODULES = ("engine", "datapipe", "losses", "models", "training", "baselines",
           "experiment")
WARMUP_STEPS = 10
SEED = 0
LINEAR_QUANTILES = (0.05, 0.5, 0.95)
LINEAR_ITERATIONS = 30


def load(checkout: str, name: str) -> types.SimpleNamespace:
    """Import checkout/src/quantforecast as the package `name`."""
    pkg = Path(checkout).resolve() / "src" / "quantforecast"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{
        n: importlib.import_module(f"{name}.{n}") for n in MODULES})


def dataset(qf):
    series = qf.datapipe.gen_mackey_glass(
        qf.datapipe.MackeyGlassParams(steps=3000), 0)
    return qf.datapipe.normalize_and_split(
        qf.datapipe.make_windows(series, 5, 10), seed=0)


class Side:
    """One checkout's model, optimiser and step function."""

    def __init__(self, qf, args):
        self.qf = qf
        self.args = args
        self.data = dataset(qf)
        self.seconds: list[float] = []
        self.faults: list[int] = []
        if args.family == "quantile-linear":
            self.quantiles = LINEAR_QUANTILES
            self.model = None
            return
        self.quantiles = (qf.losses.DEFAULT_QUANTILES
                          if args.loss == "quantile" else (0.5,))
        hidden1, hidden2 = qf.experiment.DEFAULT_HIDDEN[args.family]
        spec = qf.models.ModelSpec(
            family=args.family, features=1, window=5, horizons=10,
            hidden1=hidden1, hidden2=hidden2, quantiles=self.quantiles)
        self.model = qf.models.build_model(spec, qf.engine.SeededRng(SEED))
        self.adam = qf.training.AdamState(learning_rate=1e-3)

    def step(self, index: np.ndarray) -> None:
        qf = self.qf
        if self.model is None:
            self.fit = qf.baselines.fit_quantile_linear(
                self.data, self.quantiles, iterations=LINEAR_ITERATIONS)
            return
        pred = qf.models.forward_pass(self.model,
                                      self.data.train_inputs[index])
        targets = self.data.train_targets[index]
        if self.args.loss == "quantile":
            value = qf.losses.quantile_loss_batch(targets, pred,
                                                  self.quantiles)
        else:
            value = qf.losses.mse_loss_batch(targets, pred)
        grads = qf.engine.backward(value.node,
                                   params=list(self.model.params.values()))
        qf.training.adam_step(self.model.params, grads, self.adam)

    def timed_step(self, index: np.ndarray, record: bool) -> None:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        self.step(index)
        took = perf_counter() - start
        if record:
            self.seconds.append(took)
            self.faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)

    def step_peak_mb(self, index: np.ndarray) -> float:
        """The most memory one more step allocates at once, in MiB."""
        tracemalloc.start()
        try:
            self.step(index)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def predict(self) -> tuple[np.ndarray, float, int]:
        """The test split's predictions, with the tracemalloc peak (MiB)
        and the minor page faults of making them."""
        inputs = self.data.test_inputs
        tracemalloc.start()
        try:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if self.model is None:
                pred = self.qf.baselines.predict(self.fit, inputs)
            else:
                pred = self.qf.models.forward_pass(self.model.frozen(),
                                                   inputs).data
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt \
                - faults
            return pred, tracemalloc.get_traced_memory()[1] / 2**20, faults
        finally:
            tracemalloc.stop()

    def state(self) -> list[np.ndarray]:
        if self.model is None:
            return [self.fit.coef, self.fit.intercept,
                    np.asarray(self.fit.fit_trace)]
        return [p.data for p in self.model.params.values()]


def batches(n: int, size: int, steps: int, seed: int):
    """Full batches of shuffled window indices, reshuffled once too few
    windows are left in the current pass."""
    rng = np.random.default_rng(seed)
    order = np.arange(0)
    for _ in range(steps):
        if order.size < size:
            order = rng.permutation(n)
        yield order[:size]
        order = order[size:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="checkout A (for example the parent)")
    parser.add_argument("b", help="checkout B (for example the change)")
    parser.add_argument("--family", default="edlstm",
                        choices=("lstm", "bdlstm", "edlstm", "convlstm",
                                 "quantile-linear"))
    parser.add_argument("--loss", default="quantile",
                        choices=("quantile", "mse"))
    parser.add_argument("--steps", type=int, default=300)
    parser.add_argument("--batch", type=int, default=64)
    args = parser.parse_args(argv)

    a = Side(load(args.a, "qf_a"), args)
    b = Side(load(args.b, "qf_b"), args)
    n = a.data.train_inputs.shape[0]
    *timed, extra = batches(n, args.batch, WARMUP_STEPS + args.steps + 1,
                            SEED)
    for s, index in enumerate(timed):
        record = s >= WARMUP_STEPS
        for side in ((a, b) if s % 2 == 0 else (b, a)):
            side.timed_step(index, record)
    peaks = a.step_peak_mb(extra), b.step_peak_mb(extra)
    (pred_a, peak_a, faults_a), (pred_b, peak_b, faults_b) = (
        a.predict(), b.predict())

    ms_a = 1e3 * np.asarray(a.seconds)
    ms_b = 1e3 * np.asarray(b.seconds)
    summary = {
        "family": args.family, "loss": args.loss, "steps": args.steps,
        "batch": args.batch, "quantiles": list(a.quantiles),
        "a_ms_per_step": float(ms_a.mean()),
        "b_ms_per_step": float(ms_b.mean()),
        "total_ratio_a_over_b": float(ms_a.sum() / ms_b.sum()),
        "median_ratio_a_over_b": float(np.median(ms_a / ms_b)),
        "a_minor_faults_per_step": float(np.median(a.faults)),
        "b_minor_faults_per_step": float(np.median(b.faults)),
        "a_step_peak_mb": peaks[0],
        "b_step_peak_mb": peaks[1],
        "bitwise_equal": all(x.tobytes() == y.tobytes()
                             for x, y in zip(a.state(), b.state())),
        "a_predict_peak_mb": peak_a,
        "b_predict_peak_mb": peak_b,
        "a_predict_minor_faults": faults_a,
        "b_predict_minor_faults": faults_b,
        "predictions_bitwise_equal": pred_a.tobytes() == pred_b.tobytes(),
    }
    print(json.dumps(summary, indent=1))
    if summary["a_minor_faults_per_step"] != summary["b_minor_faults_per_step"]:
        print("warning: the sides' minor faults per step differ, so the "
              "time ratio may not hold in separate processes; confirm it "
              "with alternating perfbench pairs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
