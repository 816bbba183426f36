"""Timing and observation wrappers installed on quantforecast's public
functions where its modules look them up.

Untraced, only the calls the end-to-end metrics and the correctness
checks need are wrapped (about ten per seeded run). Traced, every layer
boundary records a span (name, family, start, end, parent span) in memory,
engine ops are timed per op kind, and the tape of the first training step
of each campaign is counted before backward() consumes it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class RunObservation:
    """What one seeded run showed at the layer boundaries."""
    series_values: np.ndarray | None = None
    raw: object = None            # make_windows output
    dataset: object = None        # normalize_and_split output
    seed: int | None = None
    epoch_losses: list[float] | None = None
    linear: object = None         # fitted LinearModel
    passes: int = 0               # passes over the training split
    train_s: float = 0.0
    predict_s: float = 0.0
    targets: np.ndarray | None = None
    predictions: np.ndarray | None = None


def count_tape(loss) -> Counter:
    """Nodes reachable from a loss node through `parents`, by op kind;
    leaves (parameters, inputs, initial states) count as kind "leaf"."""
    counts: Counter = Counter()
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        counts[node.op] += 1
        stack.extend(node.parents)
    return counts


class Recorder:
    """Installs the wrappers, holds spans and observations, and puts every
    original function back on close()."""

    def __init__(self, qf, trace: bool):
        self.qf = qf
        self.trace = trace
        self.family = ""
        self.spans: list[list] = []        # [name, family, start, end, parent]
        self._stack: list[int] = []
        self.op_seconds: dict[str, float] = defaultdict(float)
        self.tapes: dict[str, tuple[str, Counter]] = {}  # campaign -> tape
        self.fit_lengths: list[int] = []   # len(fit_trace) per quantile fit
        self.campaign = ""
        self.runs: list[RunObservation] = []
        self._patches: list[tuple[object, str, object]] = []
        self._install()

    # --- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, observe=None,
              before=None) -> None:
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if rec.trace:
                idx = len(rec.spans)
                rec.spans.append([name, rec.family, 0.0, 0.0,
                                  rec._stack[-1] if rec._stack else -1])
                rec._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if rec.trace:
                    rec._stack.pop()
                    rec.spans[idx][2:4] = start, end
            if observe is not None:
                observe(args, kwargs, result, end - start)
            return result

        self._patch(owner, attr, wrapper)

    def _wrap_op(self, owner, attr: str, kind: str) -> None:
        fn = getattr(owner, attr)
        seconds = self.op_seconds

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            seconds[kind] += perf_counter() - start
            return out

        self._patch(owner, attr, wrapper)

    def _install(self) -> None:
        qf = self.qf
        exp, bl = qf.experiment, qf.baselines
        self._wrap(exp, "run_experiment", "experiment.run")
        self._wrap(exp, "build_series", "datapipe.series")
        self._wrap(exp, "make_windows", "datapipe.windows", self._on_windows)
        self._wrap(exp, "normalize_and_split", "datapipe.split",
                   self._on_split)
        self._wrap(exp, "train", "training.train", self._on_train)
        self._wrap(exp, "forward_pass", "models.predict", self._on_predict)
        self._wrap(bl, "fit_ols", "baselines.fit", self._on_fit)
        self._wrap(bl, "fit_quantile_linear", "baselines.fit", self._on_fit)
        self._wrap(bl, "predict", "baselines.predict", self._on_predict)
        self._wrap(exp, "make_run_report", "evaluation.report",
                   self._on_report)
        if not self.trace:
            return
        tr = qf.training
        self._wrap(exp, "aggregate_runs", "evaluation.aggregate")
        self._wrap(exp, "emit_report", "experiment.emit")
        self._wrap(tr, "forward_pass", "models.forward")
        self._wrap(tr, "quantile_loss_batch", "losses.loss")
        self._wrap(tr, "mse_loss_batch", "losses.loss")
        self._wrap(tr, "backward", "engine.backward",
                   before=self._count_first_tape)
        self._wrap(bl, "backward", "engine.backward")
        self._wrap(tr, "adam_step", "training.adam")
        # Ops are looked up in the modules that call them; mse_loss_batch
        # imports hadamard from the engine package at call time.
        kinds = {fn: kind for kind, fn in qf.engine.OP_TABLE.items()}
        for owner in (qf.models, qf.losses, bl, qf.engine):
            for attr, value in list(vars(owner).items()):
                if callable(value) and value in kinds:
                    self._wrap_op(owner, attr, kinds[value])

    def reset(self) -> None:
        """Forget spans, op timings, tapes and fits recorded so far."""
        self.spans.clear()
        self.op_seconds.clear()
        self.tapes.clear()
        self.fit_lengths.clear()

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- observers ------------------------------------------------------------

    def start_campaign(self, name: str, family: str) -> None:
        self.campaign, self.family = name, family
        self.runs = []

    def _on_windows(self, args, kwargs, result, seconds) -> None:
        self.runs.append(RunObservation(series_values=args[0].values,
                                        raw=result))

    def _on_split(self, args, kwargs, result, seconds) -> None:
        self.runs[-1].dataset = result
        self.runs[-1].seed = result.split_seed

    def _on_train(self, args, kwargs, result, seconds) -> None:
        run = self.runs[-1]
        run.epoch_losses = list(result.epoch_losses)
        run.passes = len(result.epoch_losses)
        run.train_s = seconds

    def _on_fit(self, args, kwargs, result, seconds) -> None:
        run = self.runs[-1]
        run.linear = result
        # Each gradient-descent iteration is one pass; OLS makes one.
        run.passes = max(len(result.fit_trace), 1)
        run.train_s = seconds
        if result.fit_trace:
            self.fit_lengths.append(len(result.fit_trace))

    def _on_predict(self, args, kwargs, result, seconds) -> None:
        self.runs[-1].predict_s = seconds

    def _on_report(self, args, kwargs, result, seconds) -> None:
        run = self.runs[-1]
        run.targets, run.predictions = args[1], args[2]

    def _count_first_tape(self, args) -> None:
        if self.campaign not in self.tapes:
            self.tapes[self.campaign] = (self.family, count_tape(args[0]))

    # --- span arithmetic ----------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict]:
        """Total and self seconds per (name, family). Self time is a span
        minus its direct child spans."""
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        for name, family, start, end, parent in self.spans:
            total[(name, family)] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[(p[0], p[1])] += end - start
        own = {key: total[key] - child.get(key, 0.0) for key in total}
        return dict(total), own

    def span_counts(self) -> Counter:
        return Counter((name, family) for name, family, *_ in self.spans)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, family, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "family": family,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
