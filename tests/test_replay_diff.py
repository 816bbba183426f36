"""Smoke test of scripts/replay_diff.py: two paths to this checkout write
byte-identical files and messages."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_checkout_twice_reports_no_difference():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_diff.py"), str(ROOT),
         str(ROOT / "src" / ".."), "--quick"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("replay_diff: 5 commands, ")
    assert proc.stderr.endswith(" files, 0 differ\n")
