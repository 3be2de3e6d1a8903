"""End-to-end acceptance checks, one per release criterion.

Each test prints a single `criterion NN [PASS|FAIL]` line (visible with
`pytest -s` or in captured output) and then asserts the condition.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import build_scenario, entropy_score, least_confidence_score, margin_score
from frugalas.arff import ArffError, parse_arff, serialize_arff
from frugalas.forest import ForestConfig, fit_forest
from frugalas.harness import (
    ExperimentSpec,
    read_step_logs,
    run_grid,
    run_passive_baseline,
    summarize,
    write_summary,
)
from frugalas.loop import DynamicTimeoutController, FrugalLoop, LoopConfig
from frugalas.plotsvg import emit_plot
from frugalas.preprocess import make_splits
from frugalas.scenario import OK, TIMEOUT, ScenarioError, load_scenario, par10, scenario_stats
from frugalas.synthetic import make_synthetic_scenario

from test_selector import _ensemble
from frugalas.selector import select_batch


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num:02d}: {label}{suffix}"


def test_criterion_01_synthetic_end_to_end(tmp_path):
    # full-size benchmark reproduction needs external scenario data and long
    # CPU budgets; the release gate is this synthetic end-to-end pipeline run
    spec = ExperimentSpec(
        scenario=make_synthetic_scenario(40, 2, seed=0),
        out_dir=tmp_path / "runs",
        configurations=["uncertainty-to-dt", "random", "passive"],
        folds=[0],
        seeds=[0],
        n_trees=5,
    )
    paths = run_grid(spec)
    rows = read_step_logs(spec.out_dir)
    summary = summarize(rows)
    write_summary(summary, tmp_path / "summary.csv")
    svg = emit_plot(summary, tmp_path / "summary.svg", aggregate_by=None)
    ok = (
        len(paths) == 3
        and all(p.exists() for p in paths)
        and len(rows) > 0
        and svg.exists()
    )
    report(1, "synthetic end-to-end pipeline (run, summarize, plot)", ok,
           f"{len(rows)} step rows")


def test_criterion_02_uncertainty_ranking_equivalence():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        p_max = rng.uniform(0.5, 1.0, size=64)
        by_lc = np.argsort(-least_confidence_score(p_max), kind="stable")
        by_margin = np.argsort(-margin_score(p_max), kind="stable")
        by_entropy = np.argsort(-entropy_score(p_max), kind="stable")
        if not (np.array_equal(by_lc, by_margin) and np.array_equal(by_lc, by_entropy)):
            ok = False
            break
    # The loop's own query rule picks its open cells in each score's stable
    # descending order over `pair_confidences`.
    s = make_synthetic_scenario(60, 3, seed=0)
    plan = make_splits(s, seed=0)
    loop = FrugalLoop(s, plan.folds[0], plan.test,
                      LoopConfig(selection="uncertainty", forest=ForestConfig(n_trees=5, seed=0)))
    for _ in range(3):
        pair, pos = np.nonzero(loop.pool)
        p_max = loop.pair_confidences()[pair, pos]
        picked_pair, picked_pos = loop.select_queries(pos.size)
        for score in (least_confidence_score, margin_score, entropy_score):
            order = np.argsort(-score(p_max), kind="stable")
            ok = ok and np.array_equal(picked_pair, pair[order]) and np.array_equal(picked_pos, pos[order])
        loop.step()
    report(2, "least-confidence, margin and entropy rank candidates identically, "
              "and as the uncertainty query does", ok)


def test_criterion_03_exhaustion_matches_passive_exactly():
    scenario = make_synthetic_scenario(60, 3, seed=0)
    plan = make_splits(scenario, seed=0)
    fold = plan.folds[0]
    passive = run_passive_baseline(scenario, fold, plan.test, seed=0, n_trees=100)
    passive_par10, passive_cost = passive.par10, passive.cost
    cfg = LoopConfig(
        selection="random",
        seed=0,
        forest=ForestConfig(n_trees=100, seed=0),
    )
    loop = FrugalLoop(scenario, fold, plan.test, cfg)
    records = loop.run()
    final = records[-1]
    # the cost ledger accumulates in query order, so the total only matches
    # the passive sum up to float summation order
    ok = final.test_par10 == passive_par10 and math.isclose(
        final.cost, passive_cost, rel_tol=1e-9
    )
    report(3, "exhausted frugal loop equals the passive baseline exactly", ok,
           f"par10 {final.test_par10!r} vs {passive_par10!r}")


def _first_reach_cost_frac(scenario, selection, seed):
    plan = make_splits(scenario, seed)
    fold = plan.folds[0]
    passive = run_passive_baseline(scenario, fold, plan.test, seed, n_trees=100)
    passive_par10, passive_cost = passive.par10, passive.cost
    cfg = LoopConfig(
        selection=selection,
        timeout_predictor=True,
        dynamic_timeout=True,
        seed=seed,
        forest=ForestConfig(n_trees=100, seed=seed),
        dt_initial=scenario.cutoff / 64,
    )
    loop = FrugalLoop(scenario, fold, plan.test, cfg)
    while True:
        rec = loop.step()
        if rec is None:
            return 1.0
        if rec.test_par10 <= passive_par10:
            return rec.cost / passive_cost


@pytest.mark.slow
def test_criterion_04_synthetic_frugality():
    scenario = make_synthetic_scenario(200, 3, seed=0, timeout_frac=0.3)
    means = {}
    for selection in ("random", "uncertainty"):
        fracs = [
            _first_reach_cost_frac(scenario, selection, seed) for seed in range(5)
        ]
        means[selection] = float(np.mean(fracs))
    ok = all(m < 0.6 for m in means.values())
    detail = ", ".join(f"{k}+to+dt mean {v:.3f}" for k, v in sorted(means.items()))
    report(4, "timeout-predictor + dynamic-timeout runs reach passive "
              "performance below 60% of the labelling cost", ok, detail)


def _find_csp2010():
    candidates = [os.environ.get("FRUGAL_CSP2010")]
    for root in ("/root/pkg/data", "/root/data", "/root/aslib"):
        candidates.append(os.path.join(root, "CSP-2010"))
    for c in candidates:
        if c and (Path(c) / "description.txt").exists():
            return Path(c)
    return None


def test_criterion_05_csp2010_statistics():
    directory = _find_csp2010()
    if directory is None:
        print("criterion 05 [SKIP] CSP-2010 scenario directory not available")
        pytest.skip("CSP-2010 scenario not present")
    scenario = load_scenario(directory)
    stats = scenario_stats(scenario)
    ok = (
        stats.n_instances == 2024
        and stats.n_algorithms == 2
        and stats.n_features == 86
        and abs(stats.total_time - 435) <= 0.5
        and abs(stats.vbs_time - 49) <= 0.5
        and abs(stats.sbs_time - 82) <= 0.5
    )
    report(5, "CSP-2010 descriptive statistics", ok,
           f"{stats.n_instances} inst, {stats.total_time:.1f}/"
           f"{stats.vbs_time:.1f}/{stats.sbs_time:.1f} h")


def test_criterion_06_par10_exactness():
    ok = par10(3600.0, TIMEOUT, 3600.0) == 36000.0 and par10(12.5, OK, 3600.0) == 12.5
    report(6, "timed-out runs score exactly ten times the cutoff", ok)


def test_criterion_07_forest_sanity():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0, 1, size=(100, 4)), rng.normal(4, 1, size=(100, 4))])
    y = np.array([0] * 100 + [1] * 100)
    order = rng.permutation(200)
    train, test = order[:100], order[100:]
    f1 = fit_forest(X[train], y[train], ForestConfig(seed=3))
    f2 = fit_forest(X[train], y[train], ForestConfig(seed=3))
    proba = f1.predict_proba(X[test])
    accuracy = ((proba[:, 1] > proba[:, 0]) == y[test]).mean()
    ok = (
        accuracy >= 0.9
        and (proba >= 0).all()
        and (proba <= 1).all()
        and np.allclose(proba.sum(axis=1), 1.0, rtol=0, atol=0)
        and np.array_equal(proba, f2.predict_proba(X[test]))
    )
    report(7, "forest accuracy, probability bounds and seeded determinism", ok,
           f"holdout accuracy {accuracy:.2f}")


def test_criterion_08_selector_rules():
    s = build_scenario(np.ones((4, 3)))
    row = s.feature_matrix[s.instance_index("i0")]
    all_a = {("a0", "a1"): "a", ("a0", "a2"): "a", ("a1", "a2"): "a"}
    vote_ok = select_batch(_ensemble(s, all_a), [row])[0] == "a0"
    cycle = {("a0", "a1"): "a", ("a1", "a2"): "a", ("a0", "a2"): "b"}
    tie_ok = select_batch(_ensemble(s, cycle), [row])[0] == "a0"
    excl_ok = select_batch(_ensemble(s, all_a, timeouts={"a0"}), [row])[0] == "a1"
    all_to = _ensemble(s, all_a, timeouts={"a0", "a1", "a2"})
    exception_ok = select_batch(all_to, [row])[0] == "a0"
    ok = vote_ok and tie_ok and excl_ok and exception_ok
    report(8, "vote counting, tie-break, timeout exclusion and the "
              "all-predicted-timeout exception", ok)


def test_criterion_09_controller_and_ledger():
    c = DynamicTimeoutController(initial=10.0, cap=1000.0)
    grew = [c.observe(v) for v in (1000.0, 999.0, 998.5, 990.0, 989.0)]
    scripted_ok = grew == [False, False, True, False, False] and c.current == 20.0

    scenario = make_synthetic_scenario(40, 2, seed=1)
    plan = make_splits(scenario, seed=0)
    cfg = LoopConfig(
        selection="random", dynamic_timeout=True, seed=0,
        forest=ForestConfig(n_trees=5, seed=0),
    )
    loop = FrugalLoop(scenario, plan.folds[0], plan.test, cfg)
    records = loop.run(max_steps=20)
    timeouts = [r.timeout for r in records]
    costs = [r.cost for r in records]
    ledger_ok = (
        timeouts == sorted(timeouts)
        and all(t <= scenario.cutoff for t in timeouts)
        and costs == sorted(costs)
        and all(e.charged >= 0 for e in loop.ledger.entries)
    )
    report(9, "dynamic timeout monotone and capped; cost ledger monotone",
           scripted_ok and ledger_ok)


def test_criterion_10_parser_diagnostics(tmp_path):
    text = (
        "@relation runs\n"
        "@attribute instance_id string\n"
        "@attribute runstatus {ok,timeout}\n"
        "@data\n"
        "i1,ok\n"
        "i2,timeout\n"
    )
    rel = parse_arff(text)
    round_trip_ok = parse_arff(serialize_arff(rel)) == rel

    diagnostics_ok = True
    try:
        parse_arff(text.replace("i2,timeout", "i2,timeout,extra"))
        diagnostics_ok = False
    except ArffError:
        pass
    try:
        parse_arff(text.replace("i2,timeout", "i2,crash"))
        diagnostics_ok = False
    except ArffError:
        pass
    try:
        load_scenario(tmp_path / "missing")
        diagnostics_ok = False
    except ScenarioError:
        pass
    report(10, "format round-trip and malformed-input diagnostics",
           round_trip_ok and diagnostics_ok)
