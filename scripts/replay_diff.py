#!/usr/bin/env python3
"""Byte-for-byte comparison of two checkouts' command-line outputs.

    python3 scripts/replay_diff.py PARENT CHANGE [--quick]

PARENT and CHANGE are source trees, each with `src/quantforecast` (for a
git commit, unpack it with `git archive COMMIT | tar -x -C DIR`). Each
command of one fixed list runs on each tree in a fresh process
(`python -m quantforecast.cli`, that tree's `src` first on PYTHONPATH,
PYTHONDONTWRITEBYTECODE=1, BLAS at one thread) in a work directory of its
own, with the same relative paths on both sides. The list holds:

- 2-run Mackey-Glass campaigns of all five families, quantile and
  classic (neural ones at 3 epochs on 400 steps);
- a classic edlstm campaign on cropped Lorenz;
- `mg-edlstm-blocked`, a five-level quantile edlstm campaign (hidden
  8/8, 1 epoch) on 1,700 Mackey-Glass steps, whose 337-window test split
  is predicted in two blocks (`models.PREDICT_ROWS` is 320);
- multivariate `csv` campaigns on a generated market-format file;
- `generate` outputs, the `gradcheck` lines and a `report`
  re-aggregation;
- failing commands, among them the spellings of retired commands and
  flags, settings that a campaign does not read (`--linear-iterations`
  on lstm and on a classic linear campaign, `--hidden2` on convlstm,
  `--data-seed` on a `csv` file), a seed outside [0, 2**64) for
  `generate` and `gradcheck`, and a relative `--out` with
  QUANTFORECAST_OUT set.

Every command's exit code, stdout and stderr are kept as files beside
what it wrote, with the work directory and the tree's `src` path masked.
Then every file of the two sides is compared byte for byte. The only
values skipped are `wall_seconds` in run reports (`run_*.json`),
`output_dir` in `config.json`, and the line number of a warning's
location `<src>/quantforecast/<module>.py:<line>` in stderr, which moves
with any edit above it. For each file that differs or exists on
one side only, one JSON line is printed with the first differing cell:
the row and column of a CSV, the key path of a JSON file, or the line of
any other file. A summary goes to stderr. Exit status: 0 when nothing
differs, 1 otherwise.

`--quick` runs five cheap commands (a `generate`, a linear campaign, its
re-aggregation and two failing commands) in a few seconds.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

FAMILIES = ("lstm", "bdlstm", "edlstm", "convlstm", "linear")
MG = ["--dataset", "mackey-glass", "--runs", "2", "--data-steps", "400"]
QUICK_LINEAR = ["experiment", "--dataset", "mackey-glass", "--family",
                "linear", "--runs", "2", "--data-steps", "200", "--window",
                "4", "--horizons", "2", "--no-quantile", "--out", "quick"]
# Values that differ between identical runs: masked before comparing.
MASKS = {"config.json": re.compile(rb'("output_dir": )"[^"]*"'),
         "run_*.json": re.compile(rb'("wall_seconds": )[-+.\deE]+'),
         "stderr": re.compile(rb'(<src>/quantforecast/[\w/]+\.py:)\d+')}


def commands(quick: bool) -> list[tuple[str, list[str], dict]]:
    """(name, argv, extra environment) per command, in run order. A later
    command may read what an earlier one wrote."""
    if quick:
        return [
            ("generate-mg", ["generate", "mackey-glass", "--steps", "200",
                             "--seed", "1", "--out", "mg.csv"], {}),
            ("quick", QUICK_LINEAR, {}),
            ("report-quick", ["report", "--runs-dir", "quick/runs",
                              "--out", "report-quick"], {}),
            ("fail-no-family", ["experiment", "--dataset", "mackey-glass",
                                "--runs", "2"], {}),
            ("fail-report-empty", ["report", "--runs-dir", "empty"], {})]
    cmds = [
        ("generate-mg", ["generate", "mackey-glass", "--steps", "400",
                         "--seed", "1", "--out", "mg.csv"], {}),
        ("generate-lorenz", ["generate", "lorenz", "--steps", "2000",
                             "--component", "y", "--dt", "0.02",
                             "--out", "lz.csv"], {})]
    for family in FAMILIES:
        epochs = [] if family == "linear" else ["--epochs", "3"]
        for loss in ("quantile", "no-quantile"):
            name = f"mg-{family}-{loss}"
            cmds.append((name, ["experiment", "--family", family,
                                f"--{loss}", *MG, *epochs, "--out", name],
                         {}))
    cmds += [
        ("lorenz-edlstm-classic",
         ["experiment", "--dataset", "lorenz", "--family", "edlstm",
          "--no-quantile", "--runs", "2", "--data-steps", "1000",
          "--data-offset", "500", "--data-limit", "300", "--epochs", "2",
          "--batch-size", "32", "--learning-rate", "1e-3",
          "--out", "lorenz-edlstm-classic"], {}),
        ("mg-edlstm-blocked",
         ["experiment", "--dataset", "mackey-glass", "--family", "edlstm",
          "--quantile", "--runs", "2", "--data-steps", "1700",
          "--hidden1", "8", "--hidden2", "8", "--epochs", "1",
          "--out", "mg-edlstm-blocked"], {}),
        ("market-convlstm", ["experiment", "--dataset", "csv", "--strategy",
                             "multivariate", "--csv-path", "market.csv",
                             "--family", "convlstm", "--runs", "2",
                             "--epochs", "2", "--out", "market-convlstm"],
         {}),
        ("market-linear", ["experiment", "--dataset", "csv", "--strategy",
                           "multivariate", "--csv-path", "market.csv",
                           "--family", "linear", "--runs", "2",
                           "--linear-iterations", "200",
                           "--out", "market-linear"], {}),
        ("report-lstm", ["report", "--runs-dir", "mg-lstm-quantile/runs",
                         "--out", "report-lstm"], {}),
        ("gradcheck", ["gradcheck", "--seed", "0"], {}),
        # the quick set but its generate-mg: the failing report commands
        # below read its campaign
        *commands(quick=True)[1:]]
    # Small campaigns, so that a tree that accepts a command runs it fast.
    linear = ["experiment", "--dataset", "mackey-glass", "--family",
              "linear", "--runs", "2", "--data-steps", "300",
              "--no-quantile"]
    lstm = ["experiment", "--dataset", "mackey-glass", "--family", "lstm",
            "--runs", "2", "--data-steps", "300", "--epochs", "1"]
    failing = [
        ("missing-config", ["experiment", "--config", "absent.json"]),
        ("linear-epochs", [*linear, "--epochs", "3", "--out", "f1"]),
        ("linear-batch-size", [*linear, "--batch-size", "8", "--out", "f2"]),
        ("abbreviated-flag", [*linear, "--learning", "0.01", "--out", "f3"]),
        ("nan-learning-rate", [*lstm, "--learning-rate", "nan",
                               "--out", "f4"]),
        ("quantiles-without-median", [*lstm, "--quantiles", "0.1", "0.9",
                                      "--out", "f5"]),
        ("missing-csv", ["experiment", "--dataset", "sunspot", "--family",
                         "linear", "--csv-path", "absent.csv",
                         "--out", "f6"]),
        ("multivariate-one-column", ["experiment", "--dataset", "csv",
                                     "--strategy", "multivariate",
                                     "--csv-path", "mg.csv", "--family",
                                     "linear", "--runs", "1", "--out", "f7"]),
        ("generate-foreign-flag", ["generate", "mackey-glass", "--rho", "5",
                                   "--out", "f8.csv"]),
        ("generate-overflow", ["generate", "lorenz", "--dt", "0.5",
                               "--steps", "2000", "--out", "f9.csv"]),
        ("report-bad-run", ["report", "--runs-dir", "bad-run",
                            "--out", "f10"]),
        ("report-disagreeing-runs", ["report", "--runs-dir", "bad-shape",
                                     "--out", "f11"]),
        ("gradcheck-bad-seed", ["gradcheck", "--seed", "-1"]),
        ("generate-bad-seed", ["generate", "mackey-glass", "--seed", "-1",
                               "--out", "f18.csv"]),
        # retired spellings
        ("train", ["train", "--dataset", "mackey-glass", "--family",
                   "linear", "--data-steps", "300", "--no-quantile",
                   "--out", "f12"]),
        ("report-format-csv", ["report", "--runs-dir", "quick/runs",
                               "--format", "csv", "--out", "f13"]),
        ("report-format-svg", ["report", "--runs-dir", "quick/runs",
                               "--format", "svg-plot-data", "--out", "f14"]),
        ("gradcheck-tol", ["gradcheck", "--tol", "1e-3"]),
        # settings the campaign does not read
        ("lstm-linear-iterations", [*lstm, "--linear-iterations", "7",
                                    "--out", "f15"]),
        ("convlstm-hidden2", ["experiment", "--dataset", "mackey-glass",
                              "--family", "convlstm", "--runs", "2",
                              "--data-steps", "300", "--epochs", "1",
                              "--hidden2", "5", "--out", "f16"]),
        ("csv-data-seed", ["experiment", "--dataset", "csv", "--csv-path",
                           "mg.csv", "--family", "linear", "--runs", "1",
                           "--no-quantile", "--data-seed", "3",
                           "--out", "f17"]),
        ("classic-linear-iterations", [*linear, "--linear-iterations", "7",
                                       "--out", "f19"])]
    cmds += [(f"fail-{name}", argv, {}) for name, argv in failing]
    cmds.append(("output-root-env", ["generate", "mackey-glass", "--steps",
                                     "60", "--out", "env.csv"],
                 {"QUANTFORECAST_OUT": "env-root"}))
    return cmds


def write_inputs(work: Path) -> None:
    """The files commands read that no command writes: a market-format
    CSV, two empty directories, a run file that is not a run report and
    two run files of different horizon counts."""
    rng = np.random.default_rng(0)
    # Python floats, whose repr is a plain number (numpy 2 writes
    # np.float64(...), which no CSV reader parses)
    close = (100.0 + np.cumsum(rng.normal(size=240))).tolist()
    day = datetime.date(2020, 1, 1)
    lines = ["Date,High,Low,Open,Close,Volume"]
    for i, c in enumerate(close):
        lines.append(f"{day + datetime.timedelta(days=i)},"
                     f"{c + 1.0 + rng.random()!r},{c - 1.0 - rng.random()!r},"
                     f"{c + rng.normal()!r},{c!r},{1e6 * rng.random()!r}")
    (work / "market.csv").write_text("\n".join(lines) + "\n")
    (work / "empty").mkdir()
    (work / "env-root").mkdir()
    (work / "bad-run").mkdir()
    (work / "bad-run" / "run_0.json").write_text('{"seed": 0}')
    (work / "bad-shape").mkdir()
    for seed, rmse in ((0, [0.1, 0.2]), (1, [0.1, 0.2, 0.3])):
        (work / "bad-shape" / f"run_{seed}.json").write_text(json.dumps({
            "seed": seed, "quantiles": [0.5], "per_horizon_rmse": rmse,
            "per_quantile_rmse": [0.15], "mean_rmse": 0.15,
            "wall_seconds": 1.0}))


def replay(tree: Path, side: Path, quick: bool) -> int:
    """Run every command on tree under side/work, and keep each one's exit
    code, stdout and stderr under side/commands/<name>/. Returns the number
    of commands run."""
    work, records = side / "work", side / "commands"
    work.mkdir(parents=True)
    write_inputs(work)
    src = str((tree / "src").resolve())
    base = {k: v for k, v in os.environ.items() if k != "QUANTFORECAST_OUT"}
    base.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1")
    cmds = commands(quick)
    for name, argv, extra in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "quantforecast.cli", *argv],
            cwd=work, env={**base, **extra}, capture_output=True, text=True,
            timeout=600)
        record = records / name
        record.mkdir(parents=True)
        (record / "exit").write_text(f"{proc.returncode}\n")
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            text = text.replace(str(work.resolve()), "<work>")
            (record / stream).write_text(text.replace(src, "<src>"))
    return len(cmds)


def masked(path: Path) -> bytes:
    """The file's bytes with the values of MASKS replaced by null."""
    data = path.read_bytes()
    for pattern, regex in MASKS.items():
        if path.match(pattern):
            data = regex.sub(rb"\1null", data)
    return data


def _flatten(value, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict):
        return [kv for k, v in value.items()
                for kv in _flatten(v, f"{prefix}.{k}" if prefix else k)]
    if isinstance(value, list):
        return [kv for i, v in enumerate(value)
                for kv in _flatten(v, f"{prefix}[{i}]")]
    return [(prefix, value)]


def first_difference(name: str, a: bytes, b: bytes) -> dict:
    """Where two differing files first part: a CSV cell, a JSON key path
    or a line."""
    if name.endswith(".json"):
        try:
            pa, pb = (_flatten(json.loads(x)) for x in (a, b))
        except ValueError:
            pass
        else:
            for (ka, va), (kb, vb) in zip_longest(pa, pb,
                                                  fillvalue=(None, None)):
                if (ka, va) != (kb, vb):
                    return {"key": ka if ka == kb else [ka, kb],
                            "parent": va, "change": vb}
    ta, tb = a.decode(errors="replace"), b.decode(errors="replace")
    if name.endswith(".csv"):
        ra, rb = (list(csv.reader(io.StringIO(t))) for t in (ta, tb))
        header = ra[0] if ra else []
        for i, (row_a, row_b) in enumerate(zip_longest(ra, rb, fillvalue=[])):
            for j, (ca, cb) in enumerate(zip_longest(row_a, row_b)):
                if ca != cb:
                    column = header[j] if j < len(header) else j
                    return {"row": i, "column": column, "parent": ca,
                            "change": cb}
    for i, (ca, cb) in enumerate(zip_longest(ta.splitlines(),
                                             tb.splitlines())):
        if ca != cb:
            return {"line": i + 1, "parent": ca, "change": cb}
    return {"bytes": [len(a), len(b)]}


def compare(a: Path, b: Path) -> tuple[list[dict], int]:
    """One entry per file that differs between side a and side b, and the
    number of files compared."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    diffs = []
    for name in sorted(files_a | files_b):
        if name not in files_b or name not in files_a:
            diffs.append({"file": name, "only_in":
                          "parent" if name in files_a else "change"})
            continue
        da, db = masked(a / name), masked(b / name)
        if da != db:
            diffs.append({"file": name, **first_difference(name, da, db)})
    return diffs, len(files_a | files_b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree A (for example the "
                                       "parent commit)")
    parser.add_argument("change", help="source tree B (for example the "
                                       "change)")
    parser.add_argument("--quick", action="store_true",
                        help="run the five-command smoke set")
    args = parser.parse_args(argv)
    trees = [Path(args.parent), Path(args.change)]
    for tree in trees:
        if not (tree / "src" / "quantforecast" / "cli.py").is_file():
            parser.error(f"{tree} has no src/quantforecast/cli.py")

    with tempfile.TemporaryDirectory(prefix="replay_diff_") as tmp:
        sides = [Path(tmp) / "parent", Path(tmp) / "change"]
        for tree, side in zip(trees, sides):
            count = replay(tree, side, args.quick)
        diffs, files = compare(*sides)
    for diff in diffs:
        print(json.dumps(diff))
    print(f"replay_diff: {count} commands, {files} files, "
          f"{len(diffs)} differ", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
