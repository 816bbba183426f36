"""Smoke test of scripts/ab_steps.py: two paths to this checkout train
and predict bitwise-equal and report positive step times and step,
prediction and epoch memory peaks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flags", [
    ["--family", "lstm", "--steps", "2", "--batch", "8"],
    # convlstm's default hidden sizes hold no hidden2
    ["--family", "convlstm", "--steps", "2", "--batch", "8"],
    ["--family", "quantile-linear", "--steps", "1"]],
    ids=["lstm", "convlstm", "quantile-linear"])
def test_same_checkout_twice_is_bitwise_equal(flags):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_steps.py"), str(ROOT),
         str(ROOT / "src" / ".."), *flags],
        capture_output=True, text=True, timeout=120, check=True)
    summary = json.loads(proc.stdout)
    assert summary["bitwise_equal"] is True
    assert summary["a_ms_per_step"] > 0 and summary["b_ms_per_step"] > 0
    assert summary["a_step_peak_mb"] > 0 and summary["b_step_peak_mb"] > 0
    assert summary["a_epoch_peak_mb"] > 0 and summary["b_epoch_peak_mb"] > 0
    for side in ("a", "b"):
        assert summary[f"{side}_predict_peak_mb"] > 0
        assert summary[f"{side}_predict_minor_faults"] >= 0
    assert summary["predictions_bitwise_equal"] is True
