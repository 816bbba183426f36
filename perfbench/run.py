"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a source checkout; quantforecast is imported from
its `src/` directory. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics that BENCHMARK.json
lists (end-to-end with --trace 0, per-layer with --trace 1). `--workload
all` runs every workload untraced, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

# perfbench pins BLAS to one thread, so it is imported before numpy.
from perfbench.bench import Workload, peak_rss_mb  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {v: os.environ[v] for v in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    work = Workload(WORKLOADS[name], seed, OUT / name)
    setup_s = work.setup()
    rec = work.measure(seconds, trace)
    rss = peak_rss_mb()
    work.check_gradients()

    values = (work.per_layer(rec) if trace
              else work.end_to_end(setup_s, rss))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail = {"workload": name, "seed": seed, "trace": trace,
              "machine": machine(), "rounds": work.rounds,
              "loop_s": work.loop_s, "per_campaign": work.per_campaign(),
              "problems": work.problems, "metrics": metrics}
    if trace:
        detail["unspanned"] = work.unspanned(rec)
        detail["traced_campaign_s"] = work.end_to_end(setup_s, rss)["campaign_s"]
        rec.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2))

    print(f"workload {name}, seed {seed}, trace {int(trace)}: "
          f"{len(work.rounds)} rounds in {work.loop_s:.1f} s")
    for row in detail["per_campaign"]:
        print(f"  campaign {row['campaign']}: test_median_rmse "
              f"{row['test_median_rmse']:.5f}, test_pinball "
              f"{row['test_pinball']:.5f}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if trace:
        share = detail["unspanned"]
        print(f"  traced campaign_s = {detail['traced_campaign_s']:.6g} s; "
              f"wall share outside spans {share['outside_spans']:.2%}, "
              f"campaign self time {share['campaign_self']:.2%}")
    failed = len(work.failed)
    print(f"  runs attempted {work.attempted}, failed {failed}; checks "
          + ("passed" if not work.problems else "FAILED"))
    for problem in work.problems:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": not work.problems,
                      "attempted": work.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    src = ROOT / "src"
    if not (src / "quantforecast" / "__init__.py").is_file():
        print(f"no quantforecast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
