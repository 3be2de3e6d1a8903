import numpy as np
import pytest

from conftest import build_scenario
from frugalas.harness import (
    FRUGAL_CONFIGS,
    _ratio,
    PASSIVE_CONFIGS,
    RATIO_GRID,
    STEP_COLUMNS,
    ExperimentSpec,
    parse_config_id,
    passive_ensemble,
    read_step_logs,
    read_summary,
    run_cell,
    run_grid,
    run_passive_baseline,
    summarize,
    write_summary,
)
from frugalas.labels import Censored, Solved
from frugalas.preprocess import FoldSplit, make_splits
from frugalas.scenario import OK, TIMEOUT
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
        with pytest.raises(ValueError):
            parse_config_id("greedy-to")


def _passive_ledger(scenario):
    """The ledger of a passive baseline trained on every instance."""
    fold = FoldSplit(train=list(scenario.instances), validation=[])
    _, ledger = passive_ensemble(scenario, fold, seed=0, n_trees=3)
    return ledger


class TestPassiveBaseline:
    def test_full_store_cost_two_by_two(self, two_by_two):
        ledger = _passive_ledger(two_by_two)
        assert ledger.total == 22.0
        assert len(ledger.store) == 4
        assert ledger.store.get("i0", "a0") == Solved(1.0)

    def test_full_store_censors_timeouts(self):
        s = build_scenario(
            [[5.0, 130.0]], statuses=[[OK, TIMEOUT]]
        )  # recorded failure time past the cutoff is clamped
        ledger = _passive_ledger(s)
        assert ledger.store.get("i0", "a1") == Censored(100.0)
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
        _, cost = run_passive_baseline(s, fold, plan.test, seed=0, n_trees=3)
        assert cost == ledger.total

    def _dominant_scenario(self, n=50):
        rng = np.random.default_rng(0)
        base = rng.uniform(1, 20, size=n)
        runtimes = np.column_stack([base, base + 5.0])
        features = rng.uniform(size=(n, 2))
        return build_scenario(runtimes, features=features)

    def test_separable_passive_reaches_test_vbs(self):
        s = self._dominant_scenario()
        plan = make_splits(s, seed=0)
        fold = plan.folds[0]
        par10, _ = run_passive_baseline(s, fold, plan.test, seed=0, n_trees=10)
        vbs = sum(s.run(i, "a0").runtime for i in plan.test)
        assert par10 == pytest.approx(vbs)

    def test_timeout_models_are_inert_without_timeouts(self):
        s = self._dominant_scenario()
        plan = make_splits(s, seed=1)
        fold = plan.folds[0]
        off, cost_off = run_passive_baseline(
            s, fold, plan.test, seed=0, timeout_models=False, n_trees=10
        )
        on, cost_on = run_passive_baseline(
            s, fold, plan.test, seed=0, timeout_models=True, n_trees=10
        )
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
        passive_par10, _ = run_passive_baseline(
            scenario, plan.folds[0], plan.test, seed=0, n_trees=spec.n_trees
        )
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
