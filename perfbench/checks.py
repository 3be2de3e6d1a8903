"""Correctness checks on the package's outputs.

Each check returns a list of failure messages (empty when it passes). The
expected values come from the generated scenario (see `scenarios.Generated`)
or from properties the method must have; none comes from stored output.
"""

from __future__ import annotations

import math

import numpy as np

from scenarios import LOADED_STATUS, Generated

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def vbs_sbs(gen: Generated, instances) -> tuple[float, float]:
    """PAR10 of the virtual best and of the single best solver on `instances`."""
    par10 = gen.par10()[gen.rows(instances)]
    return float(par10.min(axis=1).sum()), float(par10.sum(axis=0).min())


def check_scenario(gen: Generated, sc) -> list[str]:
    """The scenario loaded from disk equals the generated one."""
    errors = []
    for field in ("instances", "algorithms", "features"):
        if list(getattr(sc, field)) != getattr(gen, field):
            errors.append(f"scenario: {field} differ from the generated ones")
    if sc.cutoff != gen.cutoff:
        errors.append(f"scenario: cutoff {sc.cutoff!r} != {gen.cutoff!r}")
    matrix = np.asarray(sc.feature_matrix, dtype=np.float64)
    if matrix.shape != gen.matrix.shape or matrix.tobytes() != gen.matrix.tobytes():
        errors.append("scenario: feature matrix differs bit for bit")
    if len(sc.runs) != gen.runtimes.size:
        errors.append(f"scenario: {len(sc.runs)} run records, expected {gen.runtimes.size}")
    for i, inst in enumerate(gen.instances):
        for k, algo in enumerate(gen.algorithms):
            rec = sc.runs.get((inst, algo))
            want = (inst, algo, float(gen.runtimes[i, k]), LOADED_STATUS[gen.status[i, k]])
            got = None if rec is None else (rec.instance, rec.algorithm, rec.runtime, rec.status)
            if got != want:
                errors.append(f"scenario: run {inst}/{algo} is {got}, expected {want}")
                if len(errors) > 5:
                    return errors
    return errors


def check_split(gen: Generated, plan, fold: int) -> list[str]:
    """Test, training and validation sets are disjoint instances of the scenario."""
    test, f = set(plan.test), plan.folds[fold]
    train, validation = set(f.train), set(f.validation)
    errors = []
    if not (test | train | validation) <= set(gen.instances):
        errors.append("split: unknown instances")
    if test & train or test & validation or train & validation:
        errors.append("split: test, training and validation sets overlap")
    if len(f.train) != len(train) or not train:
        errors.append("split: training set empty or with duplicates")
    return errors


def check_ledger(gen: Generated, entries, timeout_at_step: dict[int, float], total: float) -> list[str]:
    """Every charge follows the replay rule, and the total is their sum.

    A run solves when it is recorded as solved within the step's timeout and
    is then charged its runtime; otherwise it is censored at the timeout and
    charged min(runtime, timeout).
    """
    errors = []
    row = {inst: i for i, inst in enumerate(gen.instances)}
    col = {algo: k for k, algo in enumerate(gen.algorithms)}
    charges = []
    for e in entries:
        timeout = timeout_at_step.get(e.step)
        if timeout is None:
            errors.append(f"ledger: entry at unknown step {e.step}")
            continue
        i, k = row[e.instance], col[e.algorithm]
        runtime = float(gen.runtimes[i, k])
        solved = gen.status[i, k] == "ok" and runtime <= timeout
        want = runtime if solved else min(runtime, timeout)
        state = getattr(e.state, "runtime", None) if solved else getattr(e.state, "at", None)
        if e.charged != want or state != (runtime if solved else timeout):
            errors.append(
                f"ledger: step {e.step} {e.instance}/{e.algorithm} charged {e.charged!r} "
                f"as {e.state}, expected {want!r} ({'solved' if solved else 'censored'})"
            )
        charges.append(e.charged)
    if not _close(total, math.fsum(charges)):
        errors.append(f"ledger: total {total!r} != sum of entries {math.fsum(charges)!r}")
    return errors[:6]


def check_records(records, rounds: int, initial: float, growth: float, cap: float,
                  test_vbs: float) -> list[str]:
    """Step records of a frugal loop under a dynamic timeout."""
    errors = []
    if len(records) != rounds:
        errors.append(f"loop: {len(records)} rounds ran, expected {rounds}")
    ladder = {min(initial * growth**k, cap) for k in range(64)}
    for prev, rec in zip([None] + records[:-1], records):
        if rec.timeout not in ladder:
            errors.append(f"loop: step {rec.step} timeout {rec.timeout!r} is off the growth ladder")
        if rec.test_par10 < test_vbs:
            errors.append(f"loop: step {rec.step} test PAR10 {rec.test_par10!r} below the VBS {test_vbs!r}")
        if prev is not None:
            for field in ("timeout", "cost", "requests", "data_frac"):
                if getattr(rec, field) < getattr(prev, field):
                    errors.append(f"loop: {field} decreased at step {rec.step}")
    return errors[:6]


def check_passive_rows(gen: Generated, logs: dict[str, list[list[dict]]], train, test) -> list[str]:
    """Passive cells of one (fold, seed): labelling cost and test PAR10."""
    errors = []
    t = gen.rows(train)
    want_cost = math.fsum(np.minimum(gen.runtimes[t], gen.cutoff).ravel())
    vbs, sbs = vbs_sbs(gen, test)
    for config, runs in logs.items():
        if len(runs) != 1 or len(runs[0]) != 1:
            errors.append(f"{config}: expected one step log with one row")
            continue
        row = runs[0][0]
        cost, par10 = float(row["cost_s"]), float(row["test_par10_s"])
        if not _close(cost, want_cost):
            errors.append(f"{config}: passive cost {cost!r}, expected {want_cost!r}")
        if not vbs <= par10 < sbs:
            errors.append(f"{config}: test PAR10 {par10!r} outside [VBS {vbs!r}, SBS {sbs!r})")
        if float(row["cost_frac"]) != 1.0 or float(row["data_frac"]) != 1.0:
            errors.append(f"{config}: cost_frac/data_frac are not 1")
        if config == "passive" and float(row["perf_ratio"]) != 1.0:
            errors.append("passive: perf_ratio against itself is not 1")
    return errors


def min_cost_curve(log: list[dict], targets) -> list[float]:
    """Cheapest cost fraction at which a run first reaches each ratio target;
    1.0 where it never does."""
    out = []
    for target in targets:
        hits = [float(r["cost_frac"]) for r in log if float(r["perf_ratio"]) <= target]
        out.append(min(hits) if hits else 1.0)
    return out


def check_grid(logs: dict[str, list[list[dict]]], summary: list[dict], frugal, exact) -> list[str]:
    """Exhausted frugal step logs (one per run) and their summary.

    `exact` names the configurations (full cutoff, no timeout predictor)
    whose exhausted run must equal the passive baseline exactly.
    """
    errors = []
    for config in frugal:
        runs = logs.get(config)
        if not runs or not all(runs):
            errors.append(f"{config}: missing step log")
            continue
        for log in runs:
            last = log[-1]
            where = f"{config} fold {last['fold']}"
            if float(last["data_frac"]) != 1.0:
                errors.append(f"{where}: log ends at data_frac {last['data_frac']}, not 1.0")
            costs = [float(r["cost_s"]) for r in log]
            if any(b < a for a, b in zip(costs, costs[1:])):
                errors.append(f"{where}: cost_s decreases")
            if config in exact:
                if float(last["perf_ratio"]) != 1.0:
                    errors.append(f"{where}: exhausted perf_ratio {last['perf_ratio']}, not 1.0")
                if abs(float(last["cost_frac"]) - 1.0) > 1e-9:
                    errors.append(f"{where}: exhausted cost_frac {last['cost_frac']}, not 1")

    by_config: dict[str, list[dict]] = {}
    for row in summary:
        by_config.setdefault(row["config"], []).append(row)
    if sorted(by_config) != sorted(logs):
        errors.append(f"summary: configurations {sorted(by_config)} != logs {sorted(logs)}")
    for config, rows in by_config.items():
        rows = sorted(rows, key=lambda r: float(r["ratio"]))
        runs = logs.get(config, [])
        if any(int(r["n_runs"]) != len(runs) for r in rows):
            errors.append(f"summary: {config} does not have n_runs {len(runs)}")
        targets = [float(r["ratio"]) for r in rows]
        curves = [min_cost_curve(log, targets) for log in runs]
        for curve in curves:
            if any(b > a for a, b in zip(curve, curve[1:])):
                errors.append(f"summary: {config} minimum cost rises as the target loosens")
        want = [math.fsum(c[g] for c in curves) / len(curves) for g in range(len(targets))] if curves else []
        got = [float(r["mean_cost_frac"]) for r in rows]
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            errors.append(f"summary: {config} mean_cost_frac differs from its step logs")
    return errors
