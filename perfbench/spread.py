"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 --seconds 30
    python3 perfbench/spread.py --workloads grid-exhaust --seeds 0-4 --save set1.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json. Runs go one after another, never in parallel, so that they
do not slow each other down.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            results.setdefault(workload, []).append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)

    for workload, runs in results.items():
        share = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed/attempted {sorted(share)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {metric:26s} median {median:.5g}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("nan")
                line += f"  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.4f}"
                if bounds.get(metric):
                    line += f"  ({spread / bounds[metric]:.2f} of bound {bounds[metric]})"
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
