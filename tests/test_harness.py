import dataclasses
import gc
import hashlib
import pickle
import shutil
import weakref

import numpy as np
import pytest

from conftest import build_scenario, observation, observed_cells, training_block
import frugalas.loop as loop_mod
import frugalas.selector as selector_mod
from frugalas import harness
from frugalas.harness import (
    FRUGAL_CONFIGS,
    _ratio,
    PASSIVE_CONFIGS,
    RATIO_GRID,
    STEP_COLUMNS,
    ExperimentSpec,
    ResultsError,
    parse_config_id,
    read_step_logs,
    read_summary,
    run_cell,
    run_grid,
    run_passive_baseline,
    summarize,
    write_summary,
)
from frugalas.forest import ForestConfig, dump_trees
from frugalas.labels import Censored, LabelStore, Solved
from frugalas.loop import CostLedger, FrugalLoop, LoopConfig
from frugalas.preprocess import FoldSplit, PreprocessError, fit_imputer, make_splits
from frugalas.scenario import OK, TIMEOUT
from frugalas.selector import ForestMemo, evaluate_selector, train_ensemble
from frugalas.synthetic import make_synthetic_scenario


class TestConfigIds:
    def test_all_ids_parse(self):
        for config_id in FRUGAL_CONFIGS + PASSIVE_CONFIGS:
            flags = parse_config_id(config_id)
            assert flags["to"] == ("-to" in config_id)
            assert flags["dt"] == ("-dt" in config_id)

    def test_grid_has_eight_frugal_configurations(self):
        assert len(FRUGAL_CONFIGS) == 8
        assert len(set(FRUGAL_CONFIGS)) == 8

    def test_unknown_id_rejected(self):
        for config_id in ("greedy-to", "uncertainty-tdo", "passive-dt", "bogus"):
            with pytest.raises(ValueError, match="unknown configuration id"):
                parse_config_id(config_id)


def passive_ensemble(scenario, fold, seed, timeout_models=False, n_trees=ForestConfig.n_trees):
    """The ensemble and ledger of the loop `run_passive_baseline` builds:
    `FrugalLoop`'s initial phase over the whole fold."""
    cfg = LoopConfig(
        timeout_predictor=timeout_models,
        initial_size=len(fold.train) or None,
        seed=seed,
        forest=ForestConfig(n_trees=n_trees, seed=seed),
    )
    loop = FrugalLoop(scenario, FoldSplit(fold.train, []), (), cfg)
    return loop.ensemble, loop.ledger


def _passive_ledger(scenario):
    """The ledger of a passive baseline trained on every instance."""
    fold = FoldSplit(train=list(scenario.instances), validation=[])
    _, ledger = passive_ensemble(scenario, fold, seed=0, n_trees=3)
    return ledger


class TestPassiveBaseline:
    def test_full_store_cost_two_by_two(self, two_by_two):
        ledger = _passive_ledger(two_by_two)
        assert ledger.total == 22.0
        assert observed_cells(ledger.store) == 4
        assert observation(ledger.store, "i0", "a0") == Solved(1.0)

    def test_full_store_censors_timeouts(self):
        s = build_scenario(
            [[5.0, 130.0]], statuses=[[OK, TIMEOUT]]
        )  # recorded failure time past the cutoff is clamped
        ledger = _passive_ledger(s)
        assert observation(ledger.store, "i0", "a1") == Censored(100.0)
        assert ledger.total == 5.0 + 100.0

    def test_passive_cost_is_the_sum_of_its_ledger(self):
        s = make_synthetic_scenario(40, 3, seed=2)
        plan = make_splits(s, seed=0)
        fold = plan.folds[0]
        _, ledger = passive_ensemble(s, fold, seed=0, n_trees=3)
        # one entry per (train instance, algorithm), in that order, at step 0
        assert [(e.instance, e.algorithm) for e in ledger.entries] == [
            (i, a) for i in fold.train for a in s.algorithms
        ]
        assert {e.step for e in ledger.entries} == {0}
        assert ledger.total == sum(e.charged for e in ledger.entries)
        cost = run_passive_baseline(s, fold, plan.test, seed=0, n_trees=3).cost
        assert cost == ledger.total

    @pytest.mark.parametrize("timeout_models", [False, True])
    def test_matches_labelling_every_cell_then_training(self, timeout_models):
        # the reference: run every training cell at the cutoff in fold order,
        # then fit the imputer and train once on the full store
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, seed=0)
        fold = plan.folds[0]
        ledger = CostLedger(s, LabelStore(s.instances, s.algorithms))
        for inst in fold.train:
            ledger.run(0, inst, s.algorithms, s.cutoff)
        imputer = fit_imputer(s, fold.train)
        X, solved, censored = training_block(s, fold.train, ledger.store, imputer)
        reference = train_ensemble(
            ForestMemo(fold.train, s.algorithms, X, imputer, ForestConfig(n_trees=3, seed=4)),
            solved, censored, timeout_at=s.cutoff if timeout_models else None,
        )
        ensemble, passive = passive_ensemble(s, fold, 4, timeout_models, n_trees=3)
        assert passive.entries == ledger.entries
        assert passive.total.hex() == ledger.total.hex()
        assert (ensemble.timeout_at is None) == (not timeout_models)
        assert len(ensemble.forests) == len(reference.forests)
        for got, ref in zip(ensemble.forests, reference.forests):
            assert dump_trees(got) == dump_trees(ref)
        # what the grid reads of the baseline: the same cost and the
        # reference's test PAR10 values, with and without timeout models
        baseline = run_passive_baseline(s, fold, plan.test, 4, timeout_models, n_trees=3)
        assert baseline.cost.hex() == ledger.total.hex()
        assert baseline.par10 == evaluate_selector(reference.without_timeouts(), plan.test, s)
        if timeout_models:
            assert baseline.par10_to == evaluate_selector(reference, plan.test, s)
        else:
            assert baseline.par10_to is None

    def test_no_labels_raises(self):
        # every run ties, so no pair has a label; an empty fold has no rows
        s = build_scenario(np.ones((4, 2)))
        fold = FoldSplit(train=list(s.instances), validation=[])
        with pytest.raises(PreprocessError, match="no labelled data"):
            run_passive_baseline(s, fold, [], seed=0, n_trees=3)
        with pytest.raises(PreprocessError, match="empty training set"):
            run_passive_baseline(s, FoldSplit(train=[], validation=[]), [], seed=0, n_trees=3)

    def _dominant_scenario(self, n=50):
        rng = np.random.default_rng(0)
        base = rng.uniform(1, 20, size=n)
        runtimes = np.column_stack([base, base + 5.0])
        features = rng.uniform(size=(n, 2))
        return build_scenario(runtimes, features=features)

    @pytest.mark.parametrize("timeout_models", [False, True])
    def test_walks_its_forests_once(self, monkeypatch, timeout_models):
        walks = []  # (forests, rows) of each `forest_votes` call
        votes = selector_mod.forest_votes

        def counted(forests, X):
            walks.append((list(forests), np.shape(X)[0]))
            return votes(forests, X)

        # `select_batch` walks in `selector`, the loop's vote cache in `loop`
        monkeypatch.setattr(selector_mod, "forest_votes", counted)
        monkeypatch.setattr(loop_mod, "forest_votes", counted)
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, seed=0)
        fold = plan.folds[0]
        baseline = run_passive_baseline(s, fold, plan.test, 0, timeout_models, n_trees=5)
        # one walk of every trained slot on the test rows
        [(forests, rows)] = walks
        assert rows == len(plan.test)
        ensemble, _ = passive_ensemble(s, fold, 0, timeout_models, n_trees=5)
        trained = [f for f in ensemble.forests if f is not None]
        assert [dump_trees(f) for f in forests] == [dump_trees(f) for f in trained]
        # the same values as evaluations that walk their own forests
        assert baseline.par10 == evaluate_selector(ensemble.without_timeouts(), plan.test, s)
        if timeout_models:
            assert baseline.par10_to == evaluate_selector(ensemble, plan.test, s)
        else:
            assert baseline.par10_to is None

    def test_separable_passive_reaches_test_vbs(self):
        s = self._dominant_scenario()
        plan = make_splits(s, seed=0)
        fold = plan.folds[0]
        par10 = run_passive_baseline(s, fold, plan.test, seed=0, n_trees=10).par10
        vbs = sum(s.run(i, "a0").runtime for i in plan.test)
        assert par10 == pytest.approx(vbs)

    def test_timeout_models_are_inert_without_timeouts(self):
        s = self._dominant_scenario()
        plan = make_splits(s, seed=1)
        fold = plan.folds[0]
        plain = run_passive_baseline(s, fold, plan.test, seed=0, timeout_models=False, n_trees=10)
        timed = run_passive_baseline(s, fold, plan.test, seed=0, timeout_models=True, n_trees=10)
        off, cost_off = plain.par10, plain.cost
        on, cost_on = timed.par10_to, timed.cost
        assert on == off
        assert cost_on == cost_off


def _small_spec(tmp_path, **kwargs):
    scenario = make_synthetic_scenario(40, 2, seed=0)
    defaults = dict(
        scenario=scenario,
        out_dir=tmp_path / "runs",
        configurations=["random"],
        folds=[0],
        seeds=[0],
        n_trees=5,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestGrid:
    def test_cell_count_and_layout(self, tmp_path):
        spec = _small_spec(
            tmp_path, configurations=["random", "passive"], folds=[0, 1], seeds=[0, 1]
        )
        paths = run_grid(spec)
        assert len(paths) == 8
        for p in paths:
            assert p.exists()
        assert sorted(d.name for d in (tmp_path / "runs").iterdir()) == [
            "passive",
            "random",
        ]
        assert (tmp_path / "runs" / "random" / "fold01_seed1.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_paths_and_progress_run_by_fold_then_seed_then_configuration(
        self, tmp_path, monkeypatch, jobs
    ):
        _in_process_pool(monkeypatch)
        spec = _small_spec(
            tmp_path, configurations=["random", "passive"], folds=[0, 1], seeds=[0, 1],
            jobs=jobs,
        )
        seen = []
        paths = run_grid(spec, progress=lambda *cell: seen.append(cell))
        cells = [(c, f, s) for f in (0, 1) for s in (0, 1) for c in ("random", "passive")]
        assert seen == [
            (c, f, s, spec.out_dir / c / f"fold{f:02d}_seed{s}.csv") for c, f, s in cells
        ]
        assert paths == [path for *_, path in seen]

    def test_resume_skips_existing_cells(self, tmp_path):
        spec = _small_spec(tmp_path)
        (path,) = run_grid(spec)
        original = path.read_bytes()
        stamp = path.stat().st_mtime_ns
        (again,) = run_grid(spec)
        assert again == path
        assert path.stat().st_mtime_ns == stamp  # untouched, not rewritten
        assert path.read_bytes() == original

    def test_step_log_schema(self, tmp_path):
        spec = _small_spec(tmp_path)
        run_grid(spec)
        rows = read_step_logs(spec.out_dir)
        assert rows
        assert list(rows[0].keys()) == STEP_COLUMNS
        steps = [int(r["step"]) for r in rows]
        assert steps == list(range(1, len(rows) + 1))
        costs = [float(r["cost_s"]) for r in rows]
        assert costs == sorted(costs)

    def test_exhaustion_matches_passive_exactly(self, tmp_path):
        # once every pairwise cell is labelled at the full cutoff, the frugal
        # run has trained on exactly the passive data set
        spec = _small_spec(tmp_path)
        run_grid(spec)
        last = read_step_logs(spec.out_dir)[-1]
        assert float(last["perf_ratio"]) == 1.0
        assert float(last["cost_frac"]) == 1.0
        assert float(last["data_frac"]) == 1.0

    @pytest.mark.parametrize("config", ["uncertainty-dt", "random-dt"])
    def test_dynamic_timeout_exhaustion_matches_passive(self, tmp_path, config):
        # censored initial cells stay queryable under a dynamic timeout, so an
        # exhausted run still trains on the passive labels; reruns of censored
        # runs are charged, so only the selector (not the cost) must match
        scenario = make_synthetic_scenario(60, 3, seed=0)
        spec = _small_spec(tmp_path, scenario=scenario, configurations=[config])
        run_grid(spec)
        last = read_step_logs(spec.out_dir)[-1]
        plan = make_splits(scenario, seed=0)
        passive_par10 = run_passive_baseline(
            scenario, plan.folds[0], plan.test, seed=0, n_trees=spec.n_trees
        ).par10
        assert float(last["test_par10_s"]) == passive_par10
        assert float(last["data_frac"]) == 1.0

    def test_zero_passive_par10_gives_unit_ratio(self, tmp_path):
        # algorithm a0 solves every instance in 0 s: the passive test PAR10 is 0
        rng = np.random.default_rng(0)
        scenario = build_scenario([[0.0, 1.0]] * 30, features=rng.uniform(size=(30, 2)))
        spec = _small_spec(tmp_path, scenario=scenario, configurations=["passive", "random"])
        run_grid(spec)
        rows = read_step_logs(spec.out_dir)
        assert rows
        for row in rows:
            assert float(row["test_par10_s"]) == 0.0
            assert float(row["perf_ratio"]) == 1.0

    def test_zero_cost_cells_have_unit_fractions(self, tmp_path):
        # every run takes 0 s, so the passive cost is 0: a passive row's own
        # cost fraction is 0 / 0, and an exhausted frugal run reaches it too
        rng = np.random.default_rng(0)
        scenario = build_scenario(
            [[0.0, 0.0]] * 30, statuses=[[OK, TIMEOUT]] * 30, features=rng.uniform(size=(30, 2))
        )
        spec = _small_spec(
            tmp_path, scenario=scenario, configurations=["passive", "passive-to", "uncertainty"],
            n_trees=3,
        )
        run_grid(spec)
        rows = read_step_logs(spec.out_dir)
        assert {r["config"] for r in rows} == {"passive", "passive-to", "uncertainty"}
        for row in rows:
            assert (row["cost_s"], row["cost_frac"], row["perf_ratio"]) == ("0.0", "1.0", "1.0")

    def test_passive_cell_is_single_row(self, tmp_path):
        spec = _small_spec(tmp_path, configurations=["passive", "passive-to"])
        run_grid(spec)
        rows = read_step_logs(spec.out_dir)
        assert len(rows) == 2
        for row in rows:
            assert float(row["cost_frac"]) == 1.0
            assert float(row["data_frac"]) == 1.0
        baseline = [r for r in rows if r["config"] == "passive"]
        assert float(baseline[0]["perf_ratio"]) == 1.0

    def test_parallel_matches_sequential(self, tmp_path):
        seq = _small_spec(tmp_path / "seq", seeds=[0, 1])
        par = _small_spec(tmp_path / "par", seeds=[0, 1], jobs=2)
        run_grid(seq)
        run_grid(par)
        for a, b in zip(
            sorted((tmp_path / "seq" / "runs").rglob("*.csv")),
            sorted((tmp_path / "par" / "runs").rglob("*.csv")),
        ):
            assert a.read_bytes() == b.read_bytes()


def _count_baselines(monkeypatch) -> list:
    """Patch `harness.run_passive_baseline` to record the (seed,
    timeout_models) of each call before it runs."""
    calls = []
    fit = harness.run_passive_baseline

    def counting(scenario, fold, test_instances, seed, timeout_models=False, **kwargs):
        calls.append((seed, timeout_models))
        return fit(scenario, fold, test_instances, seed, timeout_models, **kwargs)

    monkeypatch.setattr(harness, "run_passive_baseline", counting)
    return calls


def _no_unit(spec) -> bool:
    """The spec carries no `_Unit`: nothing of a run stays on it."""
    return "_unit" not in vars(spec)


def _track_units(monkeypatch) -> list:
    """Patch `harness._Unit` to keep a weak reference to each unit made."""
    units = []
    make = harness._Unit

    def tracked(*args):
        unit = make(*args)
        units.append(weakref.ref(unit))
        return unit

    monkeypatch.setattr(harness, "_Unit", tracked)
    return units


def _in_process_pool(monkeypatch) -> list:
    """Patch `harness.ProcessPoolExecutor` with a pool that runs its tasks
    in this process, each on a pickled copy of its arguments as a worker
    process gets them; returns the `max_workers` of each pool made."""
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*pickle.loads(pickle.dumps(args))) for args in zip(*iterables)]

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    return workers


def _logs(out_dir) -> dict:
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}


class TestBaselineMemo:
    CONFIGS = ["passive", "passive-to", "random", "uncertainty-to"]

    def test_one_baseline_per_fold_and_seed(self, tmp_path, monkeypatch):
        spec = _small_spec(tmp_path, configurations=self.CONFIGS, folds=[0, 1], seeds=[0, 1])
        calls = _count_baselines(monkeypatch)
        assert len(run_grid(spec)) == 16
        assert len(calls) == 4
        # `passive-to` is in the grid, so each fit has its timeout models
        assert sorted(calls) == [(0, True), (0, True), (1, True), (1, True)]
        # every unit's `passive-to` row reads its baseline's timeout PAR10
        passive_to = [r for r in read_step_logs(spec.out_dir) if r["config"] == "passive-to"]
        assert len(passive_to) == 4
        assert all(np.isfinite(float(r["test_par10_s"])) for r in passive_to)
        assert _no_unit(spec)

    def test_shared_baseline_matches_a_fresh_spec_per_cell(self, tmp_path):
        shared = _small_spec(
            tmp_path / "shared", configurations=self.CONFIGS, folds=[0, 1], seeds=[0, 1]
        )
        run_grid(shared)
        # the unshared path: a fresh one-configuration spec per cell fits
        # its own baseline, with timeout models only for `passive-to`
        fresh_dir = tmp_path / "fresh"
        for config_id in self.CONFIGS:
            for fold in (0, 1):
                for seed in (0, 1):
                    fresh = _small_spec(
                        fresh_dir, configurations=[config_id], folds=[fold], seeds=[seed]
                    )
                    run_cell(fresh, config_id, fold, seed)
        logs = _logs(shared.out_dir)
        assert len(logs) == 16
        assert logs == _logs(fresh_dir / "runs")

    def test_failed_baseline_caches_nothing(self, tmp_path, monkeypatch):
        # every run ties, so no pair has a label and the baseline raises
        rng = np.random.default_rng(0)
        scenario = build_scenario(np.ones((30, 2)), features=rng.uniform(size=(30, 2)))
        spec = _small_spec(tmp_path, scenario=scenario, configurations=self.CONFIGS)
        calls = _count_baselines(monkeypatch)
        for config_id in self.CONFIGS:
            with pytest.raises(PreprocessError, match="no labelled data"):
                run_cell(spec, config_id, 0, 0)
        assert len(calls) == len(self.CONFIGS)
        assert _no_unit(spec)
        assert not spec.out_dir.exists()

    def test_finished_grid_fits_no_baseline(self, tmp_path, monkeypatch):
        kwargs = dict(configurations=self.CONFIGS, folds=[0, 1], seeds=[0])
        first = run_grid(_small_spec(tmp_path, **kwargs))
        calls = _count_baselines(monkeypatch)
        again = _small_spec(tmp_path, **kwargs)
        assert run_grid(again) == first
        assert calls == []
        assert _no_unit(again)

    def test_grid_without_passive_to_fits_no_timeout_models(self, tmp_path, monkeypatch):
        spec = _small_spec(tmp_path, configurations=["random", "passive"], seeds=[0, 1])
        calls = _count_baselines(monkeypatch)
        run_grid(spec)
        assert calls == [(0, False), (1, False)]

    def test_parallel_grid_fits_one_baseline_per_fold_and_seed(self, tmp_path, monkeypatch):
        kwargs = dict(configurations=self.CONFIGS, folds=[0], seeds=[0, 1])
        run_grid(_small_spec(tmp_path / "seq", **kwargs))
        workers = _in_process_pool(monkeypatch)
        calls = _count_baselines(monkeypatch)
        spec = _small_spec(tmp_path / "par", jobs=3, **kwargs)
        assert len(run_grid(spec)) == 8
        assert workers == [2]  # one process per unit, and no more than `jobs`
        # one fit per unit, with the timeout models that `passive-to` reads
        assert sorted(calls) == [(0, True), (1, True)]
        assert _no_unit(spec)  # each task made its unit on its own copy
        assert _logs(spec.out_dir) == _logs(tmp_path / "seq" / "runs")

    @pytest.mark.parametrize(
        "cell", [("passive", 0, 0), ("random", 1, 0), ("random", 0, 1)],
        ids=["configuration", "fold", "seed"],
    )
    def test_cell_outside_the_grid_is_rejected(self, tmp_path, monkeypatch, cell):
        spec = _small_spec(tmp_path)
        calls = _count_baselines(monkeypatch)
        with pytest.raises(ValueError, match="outside the spec's grid"):
            run_cell(spec, *cell)
        assert calls == []
        assert not spec.out_dir.exists()

    def test_replaced_spec_starts_empty(self, tmp_path):
        # A cell's unit stays on no spec: a run leaves only the fields.
        spec = _small_spec(tmp_path, configurations=["random", "passive"])
        run_cell(spec, "random", 0, 0)
        run_grid(spec)
        fields = {f.name for f in dataclasses.fields(spec)}
        assert set(vars(spec)) == fields
        assert dataclasses.replace(spec) == spec

    def test_lone_passive_cells_fit_one_baseline(self, tmp_path, monkeypatch):
        # The `passive` cell writes `passive-to`'s log from the same
        # baseline, so the second call finds its log and fits nothing.
        kwargs = dict(configurations=["passive", "passive-to"], seeds=[0])
        grid = _small_spec(tmp_path / "grid", **kwargs)
        run_grid(grid)
        calls = _count_baselines(monkeypatch)
        spec = _small_spec(tmp_path / "cells", **kwargs)
        run_cell(spec, "passive", 0, 0)
        run_cell(spec, "passive-to", 0, 0)
        assert calls == [(0, True)]
        assert _no_unit(spec)
        assert _logs(spec.out_dir) == _logs(grid.out_dir)

    def test_resume_of_passive_to_keeps_the_passive_log(self, tmp_path, monkeypatch):
        spec = _small_spec(tmp_path, configurations=["passive", "passive-to"])
        run_grid(spec)
        before = _logs(spec.out_dir)
        passive = spec.out_dir / "passive" / "fold00_seed0.csv"
        stamp = passive.stat().st_mtime_ns
        (spec.out_dir / "passive-to" / "fold00_seed0.csv").unlink()
        calls = _count_baselines(monkeypatch)
        run_grid(spec)
        assert calls == [(0, True)]
        assert passive.stat().st_mtime_ns == stamp
        assert _logs(spec.out_dir) == before

    def test_a_tasks_unit_dies_when_the_task_returns(self, tmp_path, monkeypatch):
        # Reference counting alone frees a finished unit: no cycle holds it
        # for the cyclic garbage collector.
        spec = _small_spec(tmp_path, configurations=self.CONFIGS)
        units = _track_units(monkeypatch)
        gc.disable()
        try:
            paths = harness._run_unit(spec, 0, 0)
            assert len(units) == 1 and units[0]() is None
        finally:
            gc.enable()
        assert all(path.exists() for path in paths)


class TestSplitMemo:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_split_per_unit(self, tmp_path, monkeypatch, jobs):
        if jobs > 1:
            _in_process_pool(monkeypatch)
        seeds = []
        split = harness.make_splits

        def counting(scenario, seed):
            seeds.append(seed)
            return split(scenario, seed)

        monkeypatch.setattr(harness, "make_splits", counting)
        spec = _small_spec(
            tmp_path, configurations=TestBaselineMemo.CONFIGS, folds=[0, 1], seeds=[0, 1],
            jobs=jobs,
        )
        assert len(run_grid(spec)) == 16
        # one split per (fold, seed) unit, by fold and then seed
        assert seeds == [0, 1, 0, 1] if jobs == 1 else sorted(seeds) == [0, 0, 1, 1]
        assert _no_unit(spec)


class TestLoopThatNeverSteps:
    def _spec(self, tmp_path):
        # a batch of the whole fold: the initial phase settles every pool
        # cell of the static-timeout `random` cells, so their loops never step
        return ExperimentSpec(
            make_synthetic_scenario(40, 3), tmp_path / "runs",
            configurations=["random", "uncertainty-dt", "passive"],
            folds=[0], seeds=[0, 1], n_trees=2, batch_frac=1.0,
        )

    def test_writes_one_row_at_step_zero(self, tmp_path):
        spec = self._spec(tmp_path)
        run_grid(spec)
        rows = read_step_logs(spec.out_dir)
        for seed in (0, 1):
            (row,) = [r for r in rows if r["config"] == "random" and r["seed"] == str(seed)]
            (passive,) = [r for r in rows if r["config"] == "passive" and r["seed"] == str(seed)]
            assert (row["step"], row["labels"], row["data_frac"]) == ("0", "0", "1.0")
            assert float(row["timeout_s"]) == spec.scenario.cutoff
            # the initial phase labelled the whole fold at the cutoff, in
            # fold order: the passive ledger and the passive selector
            assert row["cost_s"] == passive["cost_s"]
            assert row["test_par10_s"] == passive["test_par10_s"]
            assert (row["cost_frac"], row["perf_ratio"]) == ("1.0", "1.0")
        summary = summarize(rows)
        assert {r["config"] for r in summary} == {"random", "uncertainty-dt", "passive"}

    def test_a_shared_loop_logs_both_passive_scores(self, tmp_path, monkeypatch):
        # Each static pair runs one X-to loop, which never steps: its X cell
        # logs the plain passive score and its X-to cell the full one.
        spec = ExperimentSpec(
            make_synthetic_scenario(40, 3), tmp_path / "runs",
            configurations=STATIC + PASSIVE_CONFIGS,
            folds=[0], seeds=[0], n_trees=2, batch_frac=1.0,
        )
        loops = _count_loops(monkeypatch)
        run_grid(spec)
        assert loops == [("uncertainty", True), ("random", True)]
        rows = read_step_logs(spec.out_dir)
        assert sorted(r["config"] for r in rows) == sorted(spec.configurations)
        row = {r["config"]: r for r in rows}
        passive, passive_to = row["passive"], row["passive-to"]
        # The timeout models change the pick, so the test tells the two apart.
        assert passive["test_par10_s"] != passive_to["test_par10_s"]
        for x in ("uncertainty", "random"):
            assert row[x]["step"] == row[f"{x}-to"]["step"] == "0"
            assert row[x]["test_par10_s"] == passive["test_par10_s"]
            assert (row[f"{x}-to"]["test_par10_s"], row[f"{x}-to"]["cost_s"]) == (
                passive_to["test_par10_s"], passive_to["cost_s"]
            )

    def test_step_log_with_no_rows_is_a_results_error(self, tmp_path):
        log = tmp_path / "runs" / "random" / "fold00_seed0.csv"
        log.parent.mkdir(parents=True)
        log.write_text(",".join(STEP_COLUMNS) + "\n")
        with pytest.raises(ResultsError, match="fold00_seed0.csv: a step log with no rows"):
            read_step_logs(tmp_path / "runs")


STATIC = ["uncertainty", "uncertainty-to", "random", "random-to"]


def _count_loops(monkeypatch) -> list:
    """Patch `FrugalLoop.run` to record the (selection, timeout predictor)
    of each loop that runs; the passive baseline's loop never does."""
    loops = []
    run = loop_mod.FrugalLoop.run

    def counting(loop, *args):
        loops.append((loop.cfg.selection, loop.cfg.timeout_predictor))
        return run(loop, *args)

    monkeypatch.setattr(loop_mod.FrugalLoop, "run", counting)
    return loops


class TestStaticPairs:
    """A unit that runs both cells of a static pair (X and X-to) runs one
    X-to loop for the two."""

    CASES = {
        "three-algorithms": dict(scenario=make_synthetic_scenario(40, 3, seed=0)),
        "two-algorithms": dict(scenario=make_synthetic_scenario(40, 2, seed=1)),
        # the initial phase settles every pool cell, so no loop steps
        "settled-initially": dict(scenario=make_synthetic_scenario(40, 3, seed=2), batch_frac=1.0),
    }

    def _spec(self, out_dir, case, **kwargs):
        settings = dict(folds=[0, 1], seeds=[0], n_trees=3) | self.CASES[case] | kwargs
        return ExperimentSpec(out_dir=out_dir, **settings)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("order", [STATIC, STATIC[::-1]], ids=["forward", "reverse"])
    def test_paired_logs_equal_single_configuration_logs(self, tmp_path, monkeypatch, case, order):
        for config_id in STATIC:
            run_grid(self._spec(tmp_path / "single" / config_id, case, configurations=[config_id]))
        single = {}
        for config_id in STATIC:
            single |= _logs(tmp_path / "single" / config_id)
        loops = _count_loops(monkeypatch)
        spec = self._spec(tmp_path / "paired", case, configurations=order)
        run_grid(spec)
        assert _logs(spec.out_dir) == single
        # one loop per pair and unit, and it is the X-to loop
        assert sorted(loops) == sorted([("random", True), ("uncertainty", True)] * 2)
        assert _no_unit(spec)

    @pytest.mark.parametrize("deleted", STATIC)
    def test_resume_recomputes_only_the_missing_cell(self, tmp_path, monkeypatch, deleted):
        spec = self._spec(tmp_path, "three-algorithms", configurations=STATIC)
        run_grid(spec)
        before = _logs(spec.out_dir)
        stamps = {p: p.stat().st_mtime_ns for p in spec.out_dir.rglob("*.csv")}
        missing = spec.out_dir / deleted / "fold01_seed0.csv"
        missing.unlink()
        loops = _count_loops(monkeypatch)
        again = self._spec(tmp_path, "three-algorithms", configurations=STATIC)
        run_grid(again)
        assert _logs(again.out_dir) == before
        # the partner's log exists, so the missing cell runs its own loop
        # and the partner computes nothing
        flags = parse_config_id(deleted)
        assert loops == [(flags["selection"], flags["to"])]
        for path, stamp in stamps.items():
            if path != missing:
                assert path.stat().st_mtime_ns == stamp
        assert _no_unit(again)

    def test_a_unit_leaves_no_records_behind(self, tmp_path, monkeypatch):
        spec = self._spec(tmp_path, "three-algorithms", configurations=STATIC + ["passive"])
        units = _track_units(monkeypatch)
        seen = []
        run_grid(spec, progress=lambda *cell: seen.append([unit() for unit in units]))
        # progress runs as each unit finishes, before the next one starts,
        # and by then the unit is gone
        assert len(units) == 2
        assert seen == [[None]] * 5 + [[None, None]] * 5

    def test_a_lone_static_cell_writes_its_partners_log(self, tmp_path, monkeypatch):
        spec = self._spec(tmp_path, "three-algorithms", configurations=STATIC)
        loops = _count_loops(monkeypatch)
        run_cell(spec, "random", 0, 0)
        assert (spec.out_dir / "random-to" / "fold00_seed0.csv").exists()
        assert loops == [("random", True)]
        # the partner's `run_cell` finds its log and runs no loop
        run_cell(spec, "random-to", 0, 0)
        assert loops == [("random", True)]
        full = self._spec(tmp_path / "full", "three-algorithms", configurations=STATIC)
        run_grid(full)
        for config_id in ("random", "random-to"):
            log = f"{config_id}/fold00_seed0.csv"
            assert (spec.out_dir / log).read_bytes() == (full.out_dir / log).read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        kwargs = dict(configurations=STATIC + ["passive-to"], seeds=[0, 1])
        seq = self._spec(tmp_path / "seq", "three-algorithms", **kwargs)
        par = self._spec(tmp_path / "par", "three-algorithms", jobs=2, **kwargs)
        run_grid(seq)
        run_grid(par)
        assert _logs(par.out_dir) == _logs(seq.out_dir)
        assert len(_logs(seq.out_dir)) == 20


class TestImputerMemo:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_imputer_per_fold_and_seed(self, tmp_path, monkeypatch, jobs):
        if jobs > 1:
            _in_process_pool(monkeypatch)
        # Every imputer is fit in `loop.fold_memo`, for a unit's memo or a
        # loop's own.
        fits = []
        fit = loop_mod.fit_imputer

        def counting(scenario, train_instances):
            fits.append(list(train_instances))
            return fit(scenario, train_instances)

        monkeypatch.setattr(loop_mod, "fit_imputer", counting)
        spec = _small_spec(
            tmp_path, configurations=FRUGAL_CONFIGS + PASSIVE_CONFIGS, folds=[0, 1],
            seeds=[0, 1], n_trees=2, jobs=jobs,
        )
        run_grid(spec)
        plans = {seed: make_splits(spec.scenario, seed) for seed in (0, 1)}
        expected = [plans[seed].folds[fold].train for fold in (0, 1) for seed in (0, 1)]
        assert sorted(fits) == sorted(expected)
        # Each unit's imputer lived in its forest memo, which went with the
        # unit when its last cell ran.
        assert _no_unit(spec)


class TestUnitForestMemo:
    """Every cell of a (fold, seed) unit and its passive baseline share one
    forest memo, and the step logs keep every bit."""

    CONFIGS = FRUGAL_CONFIGS + PASSIVE_CONFIGS

    def _spec(self, out_dir, **kwargs):
        settings = dict(configurations=self.CONFIGS, folds=[0, 1], seeds=[0], n_trees=5)
        return ExperimentSpec(make_synthetic_scenario(60, 3), out_dir, **settings | kwargs)

    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        spec = self._spec(tmp_path_factory.mktemp("memo") / "grid")
        run_grid(spec)
        assert _no_unit(spec)
        return spec.out_dir

    def test_logs_equal_single_configuration_logs(self, grid, tmp_path):
        single = {}
        for config_id in self.CONFIGS:
            spec = self._spec(tmp_path / config_id, configurations=[config_id])
            run_grid(spec)
            single |= _logs(spec.out_dir)
        assert _logs(grid) == single

    @pytest.mark.parametrize("deleted", ["uncertainty-dt", "random-to-dt"])
    def test_resume_recomputes_only_the_missing_cell(self, grid, tmp_path, monkeypatch, deleted):
        out_dir = tmp_path / "grid"
        shutil.copytree(grid, out_dir)
        stamps = {p: p.stat().st_mtime_ns for p in out_dir.rglob("*.csv")}
        missing = out_dir / deleted / "fold01_seed0.csv"
        missing.unlink()
        loops = _count_loops(monkeypatch)
        run_grid(self._spec(out_dir))
        assert _logs(out_dir) == _logs(grid)
        flags = parse_config_id(deleted)
        assert loops == [(flags["selection"], flags["to"])]
        for path, stamp in stamps.items():
            if path != missing:
                assert path.stat().st_mtime_ns == stamp

    def test_parallel_matches_sequential(self, grid, tmp_path):
        spec = self._spec(tmp_path / "par", jobs=2)
        run_grid(spec)
        assert _logs(spec.out_dir) == _logs(grid)

    def test_run_cell_drops_the_memo_after_the_last_configuration(self, tmp_path, monkeypatch):
        # A direct `run_cell` on a spec with no unit makes a unit for that
        # one cell, and the unit goes when the cell returns, the last
        # configuration's as every other.
        spec = self._spec(tmp_path / "cells", folds=[0])
        units = _track_units(monkeypatch)
        for config_id in self.CONFIGS:
            made = len(units)
            harness.run_cell(spec, config_id, 0, 0)
            assert _no_unit(spec)
            assert all(unit() is None for unit in units)
            # a cell whose partner wrote its log makes no unit
            computes = config_id not in ("uncertainty-to", "random-to", "passive-to")
            assert len(units) == made + computes

    def test_run_cell_in_reverse_order_drops_the_memo(self, tmp_path, monkeypatch):
        # Cells run one by one in any order log what the grid logs, and
        # leave no unit behind.
        kwargs = dict(folds=[0], seeds=[0], n_trees=2)
        forward = self._spec(tmp_path / "forward", **kwargs)
        backward = self._spec(tmp_path / "backward", **kwargs)
        run_grid(forward)
        for config_id in reversed(self.CONFIGS):
            harness.run_cell(backward, config_id, 0, 0)
        assert _no_unit(backward)
        assert _logs(backward.out_dir) == _logs(forward.out_dir)
        # A rerun over complete logs makes no unit.
        units = _track_units(monkeypatch)
        harness.run_cell(backward, "random", 0, 0)
        run_grid(backward)
        assert units == []

    def test_interleaved_units_remake_a_replaced_unit(self, grid, tmp_path, monkeypatch):
        # The cells of two units in turn: each cell that computes makes and
        # drops a unit of its own, so it fits its baseline again, and the
        # logs keep every bit.
        spec = self._spec(tmp_path / "interleaved")
        calls = _count_baselines(monkeypatch)
        computed = 0
        for config_id in self.CONFIGS:
            for fold in spec.folds:
                computed += not (spec.out_dir / config_id / f"fold{fold:02d}_seed0.csv").exists()
                harness.run_cell(spec, config_id, fold, 0)
                assert _no_unit(spec)
        assert _logs(spec.out_dir) == _logs(grid)
        # Each static pair's and the passive pair's first cell writes both
        # logs, so 7 of a unit's 10 cells compute.
        assert computed == 14
        assert len(calls) == computed

    def test_parallel_grid_after_a_half_run_unit(self, grid, tmp_path, monkeypatch):
        spec = self._spec(tmp_path / "half", jobs=2)
        harness.run_cell(spec, "uncertainty", 0, 0)
        assert _no_unit(spec)
        _in_process_pool(monkeypatch)
        tasks, run_unit = [], harness._run_unit

        def unit(task, *args):
            tasks.append(_no_unit(task))
            return run_unit(task, *args)

        monkeypatch.setattr(harness, "_run_unit", unit)
        run_grid(spec)
        # Each task got a spec with no unit, and the logs are the
        # sequential grid's.
        assert tasks == [True, True]
        assert _no_unit(spec)
        assert _logs(spec.out_dir) == _logs(grid)

    def test_a_cell_that_raises_drops_the_memo(self, grid, tmp_path, monkeypatch):
        # A wrapper on `run_cell` that swallows a failure, as a benchmark's
        # may: the task's cells after the one that raised run on units of
        # their own, not on the one the failure left, and log what a clean
        # grid logs.
        spec = self._spec(tmp_path / "raises", folds=[0])
        failed, run = [], loop_mod.FrugalLoop.run

        def fail_once(loop, *args):
            if not failed:
                failed.append(loop.cfg.selection)
                raise RuntimeError("cell failed")
            return run(loop, *args)

        cell = harness.run_cell

        def swallowing(*args):
            try:
                return cell(*args)
            except RuntimeError:
                return None

        monkeypatch.setattr(loop_mod.FrugalLoop, "run", fail_once)
        monkeypatch.setattr(harness, "run_cell", swallowing)
        units = _track_units(monkeypatch)
        paths = run_grid(spec)
        assert failed == ["uncertainty"] and paths[0] is None
        # The task's unit, then one for each of the 7 cells that computed
        # after the failure: `uncertainty-to` wrote its partner's log.
        assert len(units) == 8
        assert _no_unit(spec)
        fold0 = {k: v for k, v in _logs(grid).items() if k.name.startswith("fold00")}
        assert _logs(spec.out_dir) == fold0

    def test_no_forest_is_fit_twice_in_a_unit(self, tmp_path, monkeypatch):
        # Each fit keyed as perfbench/tracing.py keys it: the training rows,
        # the labels and the forest config, which holds the slot's seed.
        keys, repeats = set(), []
        fit, run_unit = selector_mod.fit_forest, harness._run_unit

        def keyed_fit(X, y, config, *args):
            key = hashlib.blake2b(
                np.ascontiguousarray(X).tobytes() + b"|" + y.tobytes() + b"|"
                + repr(config).encode()
            ).digest()
            if key in keys:
                repeats.append(config)
            keys.add(key)
            return fit(X, y, config, *args)

        def unit(*args):
            keys.clear()
            return run_unit(*args)

        monkeypatch.setattr(selector_mod, "fit_forest", keyed_fit)
        monkeypatch.setattr(harness, "_run_unit", unit)
        run_grid(self._spec(tmp_path / "grid"))
        assert keys and repeats == []


def _step_row(config, fold, seed, step, ratio, cost_frac, data_frac):
    return {
        "config": config,
        "scenario": "SYN",
        "fold": str(fold),
        "seed": str(seed),
        "step": str(step),
        "timeout_s": "100.0",
        "labels": str(step),
        "cost_s": repr(cost_frac * 1000),
        "cost_frac": repr(cost_frac),
        "data_frac": repr(data_frac),
        "test_par10_s": repr(ratio * 50.0),
        "perf_ratio": repr(ratio),
    }


def test_ratio_of_zeros():
    assert _ratio(3.0, 2.0) == 1.5
    assert _ratio(0.0, 0.0) == 1.0
    assert _ratio(2.0, 0.0) == float("inf")


class TestSummarize:
    def test_single_run_constant(self):
        rows = [_step_row("random", 0, 0, 1, 1.0, 0.4, 0.4)]
        out = summarize(rows)
        assert len(out) == len(RATIO_GRID)
        for rec in out:
            assert float(rec["mean_cost_frac"]) == 0.4
            assert float(rec["mean_data_frac"]) == 0.4
            assert float(rec["stderr_cost_frac"]) == 0.0
            assert int(rec["n_runs"]) == 1

    def test_two_runs_mean_and_stderr(self):
        rows = [
            _step_row("random", 0, 0, 1, 1.0, 0.2, 0.2),
            _step_row("random", 0, 1, 1, 1.0, 0.4, 0.4),
        ]
        out = summarize(rows)
        # mean 0.3; sample std 0.1414..., stderr over 2 runs is 0.1
        assert float(out[0]["mean_cost_frac"]) == pytest.approx(0.3)
        assert float(out[0]["stderr_cost_frac"]) == pytest.approx(0.1)
        assert int(out[0]["n_runs"]) == 2

    def test_unreached_targets_count_as_full_cost(self):
        rows = [_step_row("random", 0, 0, 1, 2.5, 0.05, 0.05)]
        out = summarize(rows)
        for rec in out:  # best ratio 2.5 never reaches any target in the grid
            assert float(rec["mean_cost_frac"]) == 1.0

    def test_reach_above_full_cost_counts_as_charged(self):
        # censored reruns are charged in full, so an exhausted dynamic-timeout
        # run can first reach a target above cost fraction 1; it is not clamped
        rows = [_step_row("random", 0, 0, 1, 1.0, 1.004, 1.0)]
        out = summarize(rows)
        assert all(float(rec["mean_cost_frac"]) == 1.004 for rec in out)

    def test_infinite_ratio_never_reaches(self):
        rows = [
            _step_row("random", 0, 0, 1, float("inf"), 0.1, 0.1),
            _step_row("random", 0, 0, 2, 1.0, 0.5, 0.5),
        ]
        out = summarize(rows)
        assert all(float(rec["mean_cost_frac"]) == 0.5 for rec in out)

    def test_first_reach_picks_cheapest_hit(self):
        rows = [
            _step_row("random", 0, 0, 1, 3.0, 0.1, 0.1),
            _step_row("random", 0, 0, 2, 1.5, 0.2, 0.2),
            _step_row("random", 0, 0, 3, 1.0, 0.4, 0.4),
        ]
        out = summarize(rows)
        by_ratio = {float(r["ratio"]): float(r["mean_cost_frac"]) for r in out}
        assert by_ratio[1.0] == 0.4
        assert by_ratio[1.2] == 0.4  # 1.5 not yet reached at that bar
        assert by_ratio[1.5] == 0.2
        assert by_ratio[2.0] == 0.2

    def test_curves_monotone_in_target(self):
        rng = np.random.default_rng(2)
        rows = []
        for seed in range(3):
            ratio, cost = 4.0, 0.0
            for step in range(1, 15):
                ratio = max(1.0, ratio - rng.uniform(0, 0.6))
                cost += rng.uniform(0.01, 0.1)
                rows.append(
                    _step_row("random", 0, seed, step, ratio, cost, cost)
                )
        out = summarize(rows)
        means = [float(r["mean_cost_frac"]) for r in out]
        # a looser target can never require more labelling than a stricter one
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_round_trip(self, tmp_path):
        rows = [_step_row("random", 0, 0, 1, 1.0, 0.4, 0.4)]
        out = summarize(rows)
        path = tmp_path / "summary.csv"
        write_summary(out, path)
        back = read_summary(path)
        assert len(back) == len(out)
        assert back[0]["config"] == "random"
        assert float(back[0]["mean_cost_frac"]) == 0.4


class TestSpecValidation:
    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _small_spec(tmp_path, seeds=[1, 1])

    def test_empty_configurations_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _small_spec(tmp_path, configurations=[])

    @pytest.mark.parametrize("config_id", ["uncertainty-tdo", "passive-dt", "bogus"])
    def test_unknown_configuration_rejected(self, tmp_path, config_id):
        with pytest.raises(ValueError, match="unknown configuration id"):
            _small_spec(tmp_path, configurations=["random", config_id])
