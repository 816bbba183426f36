"""Smoke test of scripts/replay_diff.py: two paths to this checkout write
byte-identical files and messages; and its masks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_replay_diff():
    spec = importlib.util.spec_from_file_location(
        "replay_diff", ROOT / "scripts" / "replay_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_checkout_twice_reports_no_difference():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_diff.py"), str(ROOT),
         str(ROOT / "src" / ".."), "--quick"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("replay_diff: 5 commands, ")
    assert proc.stderr.endswith(" files, 0 differ\n")


def test_warning_line_numbers_are_masked(tmp_path):
    # A warning's location moves with any edit above it; its text does not.
    compare = load_replay_diff().compare
    warning = ("<src>/quantforecast/experiment.py:{}: UserWarning: "
               "aggregating a single run: half-widths reported as 0\n")
    sides = {}
    for side, line, text in (("parent", 338, warning),
                             ("change", 334, warning),
                             ("other", 338, warning.replace("single",
                                                            "lone"))):
        record = tmp_path / side / "commands" / "one-run"
        record.mkdir(parents=True)
        (record / "stderr").write_text(text.format(line))
        sides[side] = tmp_path / side
    assert compare(sides["parent"], sides["change"]) == ([], 1)
    diffs, files = compare(sides["parent"], sides["other"])
    assert files == 1
    assert [d["file"] for d in diffs] == ["commands/one-run/stderr"]
