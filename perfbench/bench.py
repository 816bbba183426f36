"""One workload: set-up, measured rounds of campaigns, correctness checks
and the metrics computed from them.

A round runs every campaign of the workload once through
`experiment.run_experiment`. A first warm-up round fills the allocator's
pools and the caches; it is checked like every other round but not timed.
Timed rounds then repeat until the next one would end after `seconds`;
there is always at least one. Identical configs replay bitwise, so every
round attempts the same runs and a failure repeats in every round.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks
from .probes import Recorder
from .workloads import MIXED_FAMILIES

SETUP_REPEATS = 7
FD_ENTRIES_PER_BLOCK = 4
# Engine op kinds the workloads record; per-kind metrics cover these.
OP_KINDS = ("add", "sub", "hadamard", "matmul", "concat", "slice", "reshape",
            "sigmoid", "tanh", "relu", "conv1d", "reverse-time",
            "reduce-mean", "pinball-residual-branch")
TAPE_KINDS = OP_KINDS + ("leaf",)
# Per-layer metrics that also get a per-family suffix on the mixed workload.
FAMILY_METRICS = ("models.forward_s", "models.predict_s", "losses.loss_s",
                  "engine.backward_s", "engine.tape_nodes", "training.adam_s",
                  "training.train_s", "training.steps")
PLAIN_METRICS = ("datapipe.series_s", "datapipe.windows_s",
                 "datapipe.split_s", "baselines.fit_s",
                 "baselines.iterations", "baselines.predict_s",
                 "evaluation.report_s", "evaluation.aggregate_s",
                 "experiment.emit_s", "experiment.self_s")


def per_layer_names() -> list[str]:
    names = list(PLAIN_METRICS)
    for base in FAMILY_METRICS:
        names.append(base)
        names += [f"{base}.{family}" for family in MIXED_FAMILIES]
    names += [f"engine.tape_nodes.{kind}" for kind in TAPE_KINDS]
    names += [f"engine.op_s.{kind}" for kind in OP_KINDS]
    return names


# --- set-up -------------------------------------------------------------------

def import_quantforecast():
    """Import quantforecast afresh; returns its modules as one namespace."""
    for name in [m for m in sys.modules
                 if m == "quantforecast" or m.startswith("quantforecast.")]:
        del sys.modules[name]
    names = ("experiment", "training", "models", "losses", "baselines",
             "engine", "datapipe")
    return types.SimpleNamespace(**{
        n: importlib.import_module(f"quantforecast.{n}") for n in names})


def make_config(qf, spec: dict, seed: int, out_dir: Path):
    return qf.experiment.ExperimentConfig(
        **spec, data_seed=seed, output_dir=str(out_dir / spec["name"]))


def run_seeds(config) -> range:
    return range(config.base_seed, config.base_seed + config.runs)


def setup_once(campaigns: list[dict], seed: int, out_dir: Path):
    """Import, then build the series, windows and split of every run of
    every campaign, as run_experiment does before it trains."""
    start = perf_counter()
    qf = import_quantforecast()
    for spec in campaigns:
        config = make_config(qf, spec, seed, out_dir)
        series = qf.experiment.build_series(config)
        for run_seed in run_seeds(config):
            windows = qf.datapipe.make_windows(series, config.window,
                                               config.horizons)
            qf.datapipe.normalize_and_split(
                windows, seed=run_seed, train_fraction=config.train_fraction)
    return perf_counter() - start, qf


# --- one campaign's checks --------------------------------------------------------

def _flat(inputs: np.ndarray) -> np.ndarray:
    return inputs.reshape(inputs.shape[0], -1)


def check_run(qf, config, run, report: dict) -> tuple[list[str], dict]:
    """Every per-run check; returns the problems and the recomputed scores."""
    raw, ds = run.raw, run.dataset
    qs = config.quantiles
    problems = checks.check_windows(run.series_values, raw.target_index,
                                    raw.window, raw.horizons, raw.inputs,
                                    raw.targets)
    problems += checks.check_split(raw.count, ds.train_idx, ds.test_idx,
                                   config.train_fraction)
    scores = checks.run_scores(run.targets, run.predictions, qs)
    problems += checks.check_run_report(scores, report)
    problems += checks.check_pinball(scores, qf.losses.quantile_loss_batch(
        run.targets, run.predictions, qs).total)
    if len(qs) > 1:
        problems += checks.check_quantile_shares(run.targets, run.predictions)
    if config.family != "linear":
        problems += checks.check_training_progress(run.epoch_losses)
        problems += checks.check_beats_train_mean(
            ds.train_targets, run.targets,
            run.predictions[:, :, checks.median_index(qs)])
    elif config.quantile:
        lin = run.linear
        problems += checks.check_quantile_linear(
            _flat(ds.train_inputs), ds.train_targets, lin.coef,
            lin.intercept, lin.quantiles, lin.fit_trace)
    else:
        problems += checks.check_ols(_flat(ds.train_inputs), ds.train_targets,
                                     run.linear.coef, run.linear.intercept)
    return problems, scores


def fd_check(qf, config, dataset, seed: int) -> list[str]:
    """Finite differences against backward() on one training batch, on a
    model built as run_single builds it."""
    spec = qf.models.ModelSpec(
        family=config.family, features=dataset.features,
        window=config.window, horizons=config.horizons,
        hidden1=config.hidden1, hidden2=config.hidden2,
        quantiles=config.quantiles)
    model = qf.models.build_model(spec, qf.engine.SeededRng(seed).child(1))
    xb = dataset.train_inputs[:config.batch_size]
    yb = dataset.train_targets[:config.batch_size]

    def loss_node():
        pred = qf.models.forward_pass(model, xb)
        if config.quantile:
            return qf.losses.quantile_loss_batch(yb, pred, spec.quantiles).node
        return qf.losses.mse_loss_batch(yb, pred).node

    grads = qf.engine.backward(loss_node(), params=list(model.params.values()))
    by_name = {name: grads[p] for name, p in model.params.items()}
    picks = checks.pick_entries(model.params, FD_ENTRIES_PER_BLOCK,
                                np.random.default_rng(0))
    return checks.fd_gradient_check(lambda: loss_node().item(), model.params,
                                    by_name, picks)


# --- the workload ---------------------------------------------------------------

class Workload:
    """Runs one workload and gathers what its metrics and checks need."""

    def __init__(self, campaigns: list[dict], seed: int, out_dir: Path):
        self.campaigns = campaigns
        self.seed = seed
        self.out_dir = out_dir
        self.problems: list[str] = []
        self.failed: set[tuple[int, int, int]] = set()  # (round, campaign, seed)
        self.attempted = 0
        self.rounds_run = 0   # the warm-up round included
        self.rounds: list[dict] = []   # timed rounds only
        self.scores: dict[int, list[dict]] = defaultdict(list)
        self.first_predictions: dict[tuple[int, int], np.ndarray] = {}
        self.fd_inputs: dict[int, tuple[object, object, int]] = {}

    def setup(self) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the modules of the previous import
            elapsed, self.qf = setup_once(self.campaigns, self.seed,
                                          self.out_dir)
            times.append(elapsed)
        return statistics.median(times)

    def measure(self, seconds: float, trace: bool) -> Recorder:
        rec = Recorder(self.qf, trace)
        try:
            self._round(rec)
            rec.reset()
            start = perf_counter()
            while True:
                began = perf_counter()
                self.rounds.append(self._round(rec))
                took = perf_counter() - began
                if perf_counter() - start + took > seconds:
                    break
        finally:
            rec.close()
        self.loop_s = perf_counter() - start
        return rec

    def _round(self, rec: Recorder) -> dict:
        stats = {"campaign_s": 0.0, "train_windows": 0, "train_s": 0.0,
                 "predict_windows": 0, "predict_s": 0.0}
        for c, spec in enumerate(self.campaigns):
            config = make_config(self.qf, spec, self.seed, self.out_dir)
            shutil.rmtree(config.output_dir, ignore_errors=True)
            rec.start_campaign(spec["name"], spec["family"])
            start = perf_counter()
            try:
                self.qf.experiment.run_experiment(config)
            except self.qf.experiment.EmptyEval:
                pass  # every run failed; failures.json names them
            stats["campaign_s"] += perf_counter() - start
            self._check_campaign(c, config, rec.runs, stats)
        self.rounds_run += 1
        return stats

    def _check_campaign(self, c: int, config, runs, stats: dict) -> None:
        index = self.rounds_run
        out = Path(config.output_dir)
        seeds = list(run_seeds(config))
        self.attempted += len(seeds)
        failures = out / "failures.json"
        raised = set()
        if failures.exists():
            raised = {e["seed"] for e in json.loads(failures.read_text())}
            self.failed.update((index, c, s) for s in raised)
        done = [r for r in runs
                if r.predictions is not None and r.seed not in raised]
        campaign_scores = []
        for run in done:
            report = json.loads(
                (out / "runs" / f"run_{run.seed}.json").read_text())
            problems, scores = check_run(self.qf, config, run, report)
            first = self.first_predictions.setdefault((c, run.seed),
                                                      run.predictions)
            if not np.array_equal(first, run.predictions):
                problems.append("predictions differ from the first round's")
            self._fail(problems, [(index, c, run.seed)],
                       f"{config.name} seed {run.seed}")
            campaign_scores.append(scores)
            stats["train_windows"] += run.passes * run.dataset.train_idx.size
            stats["train_s"] += run.train_s
            stats["predict_windows"] += run.dataset.test_idx.size
            stats["predict_s"] += run.predict_s
            if config.family != "linear" and c not in self.fd_inputs:
                self.fd_inputs[c] = (config, run.dataset, run.seed)
        if campaign_scores:
            rows = checks.read_aggregate_csv(out / "aggregate.csv")
            problems = checks.check_aggregate(campaign_scores,
                                              config.quantiles, rows)
            self._fail(problems, [(index, c, s) for s in seeds],
                       f"{config.name} aggregate")
        self.scores[c] += campaign_scores

    def _fail(self, problems: list[str], runs: list, where: str) -> None:
        if problems:
            self.problems += [f"{where}: {p}" for p in problems]
            self.failed.update(runs)

    def check_gradients(self) -> None:
        for c, (config, dataset, seed) in self.fd_inputs.items():
            self._fail(fd_check(self.qf, config, dataset, seed),
                       [(r, c, s) for r in range(self.rounds_run)
                        for s in run_seeds(config)],
                       f"{config.name} gradient")

    # --- metrics -----------------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict:
        def median(key):
            return statistics.median(key(r) for r in self.rounds)

        campaigns = self.per_campaign()
        return {
            "setup_s": setup_s,
            "campaign_s": median(lambda r: r["campaign_s"]),
            "train_windows_per_s": median(
                lambda r: r["train_windows"] / r["train_s"]),
            "predict_windows_per_s": median(
                lambda r: r["predict_windows"] / r["predict_s"]),
            "test_median_rmse": float(np.mean(
                [c["test_median_rmse"] for c in campaigns])),
            "test_pinball": float(np.mean(
                [c["test_pinball"] for c in campaigns])),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_campaign(self) -> list[dict]:
        """Accuracy of each campaign, averaged over its completed runs."""
        return [{"campaign": spec["name"],
                 "test_median_rmse": float(np.mean(
                     [s["mean_rmse"] for s in self.scores[c]])),
                 "test_pinball": float(np.mean(
                     [s["pinball"] for s in self.scores[c]]))}
                for c, spec in enumerate(self.campaigns) if self.scores[c]]

    def per_layer(self, rec: Recorder) -> dict:
        rounds = len(self.rounds)
        total, own = rec.span_totals()
        counts = rec.span_counts()
        families = {spec["family"] for spec in self.campaigns}
        mixed = families >= set(MIXED_FAMILIES)

        def summed(table, span, family=None):
            return sum(v for (name, fam), v in table.items()
                       if name == span and family in (None, fam)) / rounds

        span_of = {"models.forward_s": (total, "models.forward"),
                   "models.predict_s": (total, "models.predict"),
                   "losses.loss_s": (total, "losses.loss"),
                   "engine.backward_s": (total, "engine.backward"),
                   "training.adam_s": (total, "training.adam"),
                   "training.train_s": (own, "training.train"),
                   "training.steps": (counts, "training.adam")}
        tapes = Counter()
        tape_by_family: Counter = Counter()
        for family, tape in rec.tapes.values():
            tapes.update(tape)
            tape_by_family[family] += sum(tape.values())

        out = {
            "datapipe.series_s": summed(total, "datapipe.series"),
            "datapipe.windows_s": summed(total, "datapipe.windows"),
            "datapipe.split_s": summed(total, "datapipe.split"),
            "baselines.fit_s": summed(total, "baselines.fit"),
            "baselines.iterations": (float(np.mean(rec.fit_lengths))
                                     if rec.fit_lengths else 0.0),
            "baselines.predict_s": summed(total, "baselines.predict"),
            "evaluation.report_s": summed(total, "evaluation.report"),
            "evaluation.aggregate_s": summed(total, "evaluation.aggregate"),
            "experiment.emit_s": summed(total, "experiment.emit"),
            "experiment.self_s": summed(own, "experiment.run"),
        }
        for base, (table, span) in span_of.items():
            out[base] = summed(table, span)
            for family in MIXED_FAMILIES:
                out[f"{base}.{family}"] = (summed(table, span, family)
                                           if mixed else 0.0)
        out["engine.tape_nodes"] = sum(tape_by_family.values())
        for family in MIXED_FAMILIES:
            out[f"engine.tape_nodes.{family}"] = (
                tape_by_family[family] if mixed else 0)
        for kind in TAPE_KINDS:
            out[f"engine.tape_nodes.{kind}"] = tapes[kind]
        for kind in OP_KINDS:
            out[f"engine.op_s.{kind}"] = rec.op_seconds[kind] / rounds
        return out

    def unspanned(self, rec: Recorder) -> dict:
        """Shares of the traced loop's wall time that no span covers, and
        that only the campaign spans' own time covers."""
        total, own = rec.span_totals()
        campaigns = sum(v for (name, _), v in total.items()
                        if name == "experiment.run")
        campaign_self = sum(v for (name, _), v in own.items()
                            if name == "experiment.run")
        return {"outside_spans": (self.loop_s - campaigns) / self.loop_s,
                "campaign_self": campaign_self / self.loop_s}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
