"""Self-tests of the benchmark's checks: each check passes on the package's
real output and rejects a planted fault.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (  # noqa: E402
    check_grid,
    check_ledger,
    check_passive_rows,
    check_records,
    check_scenario,
    vbs_sbs,
)
from scenarios import Shape, generate, write_aslib  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import read_logs  # noqa: E402

from frugalas import forest, harness, loop, selector  # noqa: E402
from frugalas.forest import ForestConfig  # noqa: E402
from frugalas.preprocess import make_splits  # noqa: E402
from frugalas.scenario import load_scenario  # noqa: E402

SEED = 3


def _loaded(tmp_path, shape):
    gen = generate(shape, SEED, "SELFTEST")
    sc = load_scenario(write_aslib(gen, tmp_path / "scenario"))
    return gen, sc, make_splits(sc, SEED)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    return _loaded(tmp_path_factory.mktemp("tiny"), Shape(30, 3, 6))


@pytest.fixture(scope="module")
def medium(tmp_path_factory):
    return _loaded(tmp_path_factory.mktemp("medium"), Shape(150, 4, 8))


def test_scenario_check_rejects_one_changed_runtime(tiny):
    gen, sc, _ = tiny
    assert check_scenario(gen, sc) == []
    key = next(iter(sc.runs))
    runs = dict(sc.runs)
    runs[key] = replace(runs[key], runtime=runs[key].runtime + 1.0)
    assert check_scenario(gen, replace(sc, runs=runs))


def test_scenario_check_rejects_one_flipped_feature_bit(tiny):
    gen, sc, _ = tiny
    matrix = sc.feature_matrix.copy()
    row, col = np.argwhere(~np.isnan(matrix))[0]
    matrix[row, col] = np.nextafter(matrix[row, col], np.inf)
    assert check_scenario(gen, replace(sc, feature_matrix=matrix))


@pytest.fixture(scope="module")
def active(medium):
    gen, sc, plan = medium
    cfg = loop.LoopConfig(
        selection="uncertainty", timeout_predictor=True, dynamic_timeout=True, seed=SEED,
        forest=ForestConfig(n_trees=3, seed=SEED), dt_initial=sc.cutoff / 64,
    )
    frugal = loop.FrugalLoop(sc, plan.folds[0], plan.test, cfg)
    records = frugal.run(max_steps=12)
    timeout_at = {0: cfg.dt_initial} | {r.step: r.timeout for r in records}
    return gen, plan, cfg, frugal, records, timeout_at


def test_ledger_check_rejects_an_overcharge(active):
    gen, _, _, frugal, _, timeout_at = active
    entries, total = frugal.ledger.entries, frugal.ledger.total
    assert check_ledger(gen, entries, timeout_at, total) == []
    planted = list(entries)
    planted[5] = replace(planted[5], charged=planted[5].charged + 1.0)
    assert check_ledger(gen, planted, timeout_at, total + 1.0)


def test_ledger_check_rejects_a_wrong_total(active):
    gen, _, _, frugal, _, timeout_at = active
    assert check_ledger(gen, frugal.ledger.entries, timeout_at, frugal.ledger.total + 1.0)


def test_records_check_rejects_falling_cost_and_off_ladder_timeout(active):
    gen, plan, cfg, _, records, _ = active
    vbs, _ = vbs_sbs(gen, plan.test)
    args = (cfg.dt_initial, cfg.dt_growth, gen.cutoff, vbs)
    assert check_records(records, len(records), *args) == []
    assert check_records(records, len(records) + 1, *args)  # cut short
    falling = records[:-1] + [replace(records[-1], cost=records[-2].cost - 1.0)]
    assert check_records(falling, len(records), *args)
    off_ladder = records[:-1] + [replace(records[-1], timeout=records[-1].timeout * 1.5)]
    assert check_records(off_ladder, len(records), *args)


def _passive_rows(gen, sc, plan, out):
    spec = harness.ExperimentSpec(sc, out, configurations=["passive"], folds=[0],
                                  seeds=[SEED], n_trees=5)
    harness.run_cell(spec, "passive", 0, SEED)
    return read_logs(out)


def test_passive_check_rejects_a_first_algorithm_selector(medium, tmp_path, monkeypatch):
    gen, sc, plan = medium
    args = (plan.folds[0].train, plan.test)
    assert check_passive_rows(gen, _passive_rows(gen, sc, plan, tmp_path / "ok"), *args) == []

    monkeypatch.setattr(
        selector, "select_batch",
        lambda ensemble, rows: [ensemble.algorithms[0]] * np.atleast_2d(rows).shape[0],
    )
    planted = _passive_rows(gen, sc, plan, tmp_path / "first")
    assert check_passive_rows(gen, planted, *args)


def test_passive_check_rejects_a_wrong_cost(medium, tmp_path):
    gen, sc, plan = medium
    rows = _passive_rows(gen, sc, plan, tmp_path / "cost")
    row = rows["passive"][0][0]
    row["cost_s"] = repr(float(row["cost_s"]) + 1.0)
    assert check_passive_rows(gen, rows, plan.folds[0].train, plan.test)


@pytest.fixture(scope="module")
def grid(tiny, tmp_path_factory):
    _, sc, _ = tiny
    out = tmp_path_factory.mktemp("grid")
    spec = harness.ExperimentSpec(
        sc, out, configurations=harness.FRUGAL_CONFIGS + harness.PASSIVE_CONFIGS,
        folds=[SEED % 10, (SEED + 5) % 10], seeds=[SEED], n_trees=2,
    )
    harness.run_grid(spec)
    return read_logs(out), harness.summarize(harness.read_step_logs(out))


def test_grid_check_rejects_a_log_cut_before_exhaustion(grid):
    logs, summary = grid
    exact = ("uncertainty", "random")
    assert check_grid(logs, summary, harness.FRUGAL_CONFIGS, exact) == []
    cut = dict(logs, random=[logs["random"][0][:-1]])
    assert check_grid(cut, summary, harness.FRUGAL_CONFIGS, exact)


def test_grid_check_rejects_a_summary_that_ignores_a_log(grid):
    logs, summary = grid
    planted = [dict(r, mean_cost_frac="1.0") if r["config"] == "random" else r for r in summary]
    assert check_grid(logs, planted, harness.FRUGAL_CONFIGS, ("uncertainty", "random"))


def test_tracer_counts_repeat_and_originals_come_back(tiny):
    _, sc, plan = tiny
    originals = (selector.fit_forest, forest._scan_split, loop.FrugalLoop.step)
    tracer = Tracer()
    tracer.install()
    try:
        for unit in range(2):
            tracer.begin_unit(unit)
            cfg = loop.LoopConfig(seed=SEED, forest=ForestConfig(n_trees=2, seed=SEED))
            loop.FrugalLoop(sc, plan.folds[0], plan.test, cfg).run(max_steps=6)
    finally:
        tracer.uninstall()
    assert (selector.fit_forest, forest._scan_split, loop.FrugalLoop.step) == originals
    first, second = tracer.unit_metrics(0), tracer.unit_metrics(1)
    assert first["loop.rounds"] == 6 and first["forest.fit_calls"] > 0
    for name in ("forest.fit_calls", "forest.nodes", "forest.scan_values", "labels.records"):
        assert first[name] == second[name]
    assert first["forest.scan_calls"] > 0
    assert 0.0 <= first["forest.fit_repeat_ratio"] <= 1.0
