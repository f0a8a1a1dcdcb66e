"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W --seeds 1 2 3 4 5 [--seconds S] [--trace 0|1]

For every metric it prints the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, and it appends every result line to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log", default=None)
    args = p.parse_args()

    results = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        line = out.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        else:
            spread = "n/a"
        print(f"{name:28s} median {median:.6g}  spread {spread}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
