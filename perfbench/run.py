"""End-to-end and per-layer benchmark of the frugal labelling loop, the passive
baseline and the experiment grid.

    python3 perfbench/run.py --workload active-aslib --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

A run generates its scenario from --seed, then repeats the workload's unit of
work until --seconds have passed, checking every repetition's outputs. Each
timing is an operation's median over the repetitions, scaled to a reference
core speed (see clock.py and README.md). With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics instead.
The exit code is 0 when every check passed, 1 when one failed and 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"


def _source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(package).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _median_by_op(units, attr) -> dict:
    """Per operation, its median over the repetitions."""
    keys = getattr(units[0], attr).keys()
    return {
        k: statistics.median(getattr(u, attr)[k] for u in units if k in getattr(u, attr))
        for k in keys
    }


def timings(units, attr: str = "ref") -> tuple[float, float]:
    """(setup seconds, run seconds): medians over repetitions, per operation."""
    from workloads import SETUP

    ops = _median_by_op(units, attr)
    return ops.pop(SETUP), sum(ops.values())


def end_to_end(units, tail_q: float) -> dict[str, tuple[float, str]]:
    setup_s, run_s = timings(units)
    rounds = np.array(sorted(_median_by_op(units, "rounds").values()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "round_p50_ms": (1e3 * float(np.quantile(rounds, 0.5)), "ms"),
        "round_tail_ms": (1e3 * float(np.quantile(rounds, tail_q)), "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(units, tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Counts of the first repetition (they must repeat exactly) and times as
    medians over repetitions, each scaled like that repetition's laps."""
    from tracing import COUNTS, METRICS

    per_unit = [tracer.unit_metrics(i) for i in range(len(units))]
    scale = [sum(u.ref.values()) / sum(u.wall.values()) for u in units]
    errors = [
        f"trace: count {name} differs between repetitions"
        for name in COUNTS
        if name in per_unit[0] and any(m[name] != per_unit[0][name] for m in per_unit)
    ]
    out = {}
    for name, unit in METRICS.items():
        if name == "trace.run_s":
            value = timings(units)[1]
        elif name in COUNTS:
            value = per_unit[0][name]
        else:
            value = statistics.median(m[name] * f for m, f in zip(per_unit, scale))
        out[name] = (value, unit)
    return out, errors


def run_workload(args) -> int:
    from clock import SpeedClock
    from scenarios import TIMEOUT_FRAC
    from workloads import WORKLOADS

    import frugalas

    workload = WORKLOADS[args.workload](args.seed, WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": frugalas.KERNEL_IMPL,
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(ROOT / "src" / "frugalas"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "scenario": {
            "instances": workload.shape.n_instances,
            "algorithms": workload.shape.n_algorithms,
            "features": workload.shape.n_features,
            "timeout_frac": TIMEOUT_FRAC,
            "trees": workload.trees,
        },
    }
    print("# " + json.dumps(info), flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    units = []
    try:
        workload.prepare()
        clock = SpeedClock()
        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer:
                tracer.begin_unit(len(units))
            units.append(workload.unit(len(units), clock))
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workload.workdir, ignore_errors=True)

    errors = [e for u in units for e in u.errors]
    if any(u.fingerprint != units[0].fingerprint for u in units):
        errors.append("repetitions of the same unit produced different outputs")
    if tracer:
        metrics, trace_errors = per_layer(units, tracer)
        errors += trace_errors
    else:
        metrics = end_to_end(units, workload.tail_q)

    for e in dict.fromkeys(errors):
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    wall_setup_s, wall_run_s = timings(units, "wall")
    print(f"# repetitions {len(units)}, operations attempted {attempted}, failed {failed}, "
          f"kernel {frugalas.KERNEL_IMPL}, unscaled wall time: setup {wall_setup_s:.6g} s, "
          f"run {wall_run_s:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")

    report = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall = {"wall_setup_s": wall_setup_s, "wall_run_s": wall_run_s, "repetitions": len(units)}
    (reports / f"{stem}.json").write_text(json.dumps(info | wall | report, indent=1) + "\n")
    if tracer:
        tracer.write(reports / f"{stem}.spans.jsonl")
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")

    package = ROOT / "src" / "frugalas"
    if not (package / "__init__.py").is_file():
        print(f"error: package sources not found under {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import frugalas

    if Path(frugalas.__file__).resolve().parent != package.resolve():
        print(f"error: imported frugalas from {frugalas.__file__}, not {package}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' (choose from all, {', '.join(WORKLOADS)})")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
