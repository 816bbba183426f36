"""Tests of the benchmark itself, on tiny sizes. Each check must pass on
the program's own output and reject a deliberately corrupted one."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.bench import TAPE_KINDS, per_layer_names
from perfbench.workloads import WORKLOADS
from quantforecast.baselines import fit_ols, fit_quantile_linear
from quantforecast.datapipe import (MackeyGlassParams, gen_mackey_glass,
                                    make_windows, normalize_and_split)
from quantforecast.engine import SeededRng, backward
from quantforecast.evaluation import aggregate_runs, make_run_report
from quantforecast.experiment import emit_report
from quantforecast.losses import quantile_loss_batch
from quantforecast.models import ModelSpec, build_model, forward_pass

ROOT = Path(__file__).resolve().parent.parent
QS = (0.05, 0.5, 0.95)


@pytest.fixture(scope="module")
def series():
    return gen_mackey_glass(MackeyGlassParams(steps=120), seed=3)


@pytest.fixture(scope="module")
def dataset(series):
    return normalize_and_split(make_windows(series, 4, 3), seed=1)


def _forecast(rng, n=40, m=3):
    """Targets and ordered three-level predictions around them."""
    targets = rng.uniform(size=(n, m))
    centre = targets + rng.normal(scale=0.1, size=(n, m))
    spread = np.array([-0.2, 0.0, 0.2])
    return targets, centre[:, :, None] + spread


def test_windows_check_rejects_shifted_window(series):
    raw = make_windows(series, 4, 3)
    args = (series.values, raw.target_index, 4, 3)
    assert checks.check_windows(*args, raw.inputs, raw.targets) == []
    assert checks.check_windows(*args, np.roll(raw.inputs, 1, axis=0),
                                raw.targets)
    assert checks.check_windows(*args, raw.inputs,
                                np.roll(raw.targets, 1, axis=0))


def test_split_check_rejects_overlap_and_gaps(dataset):
    train, test = dataset.train_idx, dataset.test_idx
    assert checks.check_split(dataset.count, train, test, 0.8) == []
    assert checks.check_split(dataset.count, train,
                              np.append(test[1:], train[0]), 0.8)
    assert checks.check_split(dataset.count, train, test[1:], 0.8)
    assert checks.check_split(dataset.count, train, test, 0.7)


def test_report_checks_reject_perturbed_prediction():
    targets, preds = _forecast(np.random.default_rng(0))
    report = make_run_report(0, targets, preds, QS, wall_seconds=0.0)
    scores = checks.run_scores(targets, preds, QS)
    program = quantile_loss_batch(targets, preds, QS).total
    assert checks.check_run_report(scores, report.to_dict()) == []
    assert checks.check_pinball(scores, program) == []
    bad = preds.copy()
    bad[3, 1, 1] += 1e-3
    bad_scores = checks.run_scores(targets, bad, QS)
    assert checks.check_run_report(bad_scores, report.to_dict())
    assert checks.check_pinball(bad_scores, program)


def test_aggregate_check_rejects_perturbed_prediction(tmp_path):
    rng = np.random.default_rng(1)
    runs = [_forecast(rng) for _ in range(3)]
    reports = [make_run_report(s, y, p, QS, wall_seconds=0.0)
               for s, (y, p) in enumerate(runs)]
    emit_report(aggregate_runs(reports), "csv", tmp_path,
                label={"model": "m", "strategy": "s", "quantile": "yes"})
    rows = checks.read_aggregate_csv(tmp_path / "aggregate.csv")
    scores = [checks.run_scores(y, p, QS) for y, p in runs]
    assert checks.check_aggregate(scores, QS, rows) == []
    y, p = runs[2]
    p = p.copy()
    p[0, 0, 1] += 1e-3
    scores[2] = checks.run_scores(y, p, QS)
    assert checks.check_aggregate(scores, QS, rows)


def test_outcome_checks_reject_bad_runs(dataset):
    targets, preds = _forecast(np.random.default_rng(2))
    assert checks.check_quantile_shares(targets, preds) == []
    assert checks.check_quantile_shares(targets, preds[:, :, ::-1])
    assert checks.check_training_progress([0.3, 0.2, 0.1]) == []
    assert checks.check_training_progress([0.3, 0.2, 0.3])
    train_mean = np.broadcast_to(dataset.train_targets.mean(axis=0),
                                 dataset.test_targets.shape)
    assert checks.check_beats_train_mean(
        dataset.train_targets, dataset.test_targets,
        dataset.test_targets) == []
    assert checks.check_beats_train_mean(
        dataset.train_targets, dataset.test_targets, train_mean)


def test_ols_check_rejects_perturbed_coefficient(dataset):
    model = fit_ols(dataset)
    x = dataset.train_inputs.reshape(dataset.train_inputs.shape[0], -1)
    y = dataset.train_targets
    assert checks.check_ols(x, y, model.coef, model.intercept) == []
    coef = model.coef.copy()
    coef[1, 0, 0] += 1e-3
    assert checks.check_ols(x, y, coef, model.intercept)


def test_quantile_linear_check_rejects_wrong_objective(dataset):
    model = fit_quantile_linear(dataset, QS, iterations=40)
    x = dataset.train_inputs.reshape(dataset.train_inputs.shape[0], -1)
    y = dataset.train_targets
    args = (x, y, model.coef, model.intercept, QS)
    assert checks.check_quantile_linear(*args, model.fit_trace) == []
    assert checks.check_quantile_linear(
        *args, model.fit_trace[:-1] + [model.fit_trace[-1] * (1 + 1e-9)])
    coef = model.coef + 1e-3
    assert checks.check_quantile_linear(x, y, coef, model.intercept, QS,
                                        model.fit_trace)


@pytest.mark.parametrize("family", ["edlstm", "bdlstm", "convlstm"])
def test_fd_check_rejects_wrong_gradient_entry(dataset, family):
    spec = ModelSpec(family=family, features=1, window=4, horizons=3,
                     hidden1=3, hidden2=3, quantiles=QS, conv_filters=4)
    model = build_model(spec, SeededRng(0).child(1))
    xb, yb = dataset.train_inputs[:8], dataset.train_targets[:8]

    def loss_value():
        return quantile_loss_batch(yb, forward_pass(model, xb), QS).node

    grads = backward(loss_value(), params=list(model.params.values()))
    by_name = {name: grads[p].copy() for name, p in model.params.items()}
    picks = checks.pick_entries(model.params, 3, np.random.default_rng(0))
    check = lambda g: checks.fd_gradient_check(  # noqa: E731
        lambda: loss_value().item(), model.params, g, picks)
    assert check(by_name) == []
    name = sorted(picks)[0]
    by_name[name].reshape(-1)[picks[name][0]] += 1e-4
    assert check(by_name)


def test_tiny_workload_runs_clean_and_names_match_benchmark_json(tmp_path):
    """A tiny workload through the whole harness, in its own process
    because set-up re-imports quantforecast."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    script = f"""
import json, sys
sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]
from pathlib import Path
from perfbench.bench import Workload
base = {{"dataset": "mackey-glass", "data_steps": 120, "window": 4,
         "horizons": 3, "runs": 2, "quantiles": (0.05, 0.5, 0.95)}}
campaigns = [
    {{**base, "name": "tiny-edlstm", "family": "edlstm", "hidden1": 3,
      "hidden2": 3, "epochs": 20, "batch_size": 16, "learning_rate": 2e-2}},
    {{**base, "name": "tiny-ols", "family": "linear", "quantile": False}},
    {{**base, "name": "tiny-quantile", "family": "linear",
      "linear_iterations": 30}},
]
work = Workload(campaigns, 0, Path({str(tmp_path)!r}))
setup_s = work.setup()
rec = work.measure(0, trace=True)
work.check_gradients()
print(json.dumps({{"problems": work.problems, "failed": len(work.failed),
                  "attempted": work.attempted,
                  "e2e": work.end_to_end(setup_s, 1.0),
                  "layers": work.per_layer(rec)}}))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["problems"] == [] and out["failed"] == 0
    assert out["attempted"] == 2 * 6   # warm-up and one timed round
    assert sorted(out["e2e"]) == sorted(m["name"] for m in spec["end_to_end"])
    assert all(v > 0 for v in out["e2e"].values())
    layers = out["layers"]
    assert sorted(layers) == sorted(per_layer_names())
    assert layers["baselines.iterations"] == 30
    assert layers["engine.tape_nodes"] == sum(
        layers[f"engine.tape_nodes.{kind}"] for kind in TAPE_KINDS)
    assert layers["training.steps"] == 2 * 20 * 6   # runs x epochs x batches


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mg-mixed-quantile",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
