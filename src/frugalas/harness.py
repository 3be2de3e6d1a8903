"""Experiment orchestration: passive baselines, the configuration grid, and
aggregation of per-step logs into cost-vs-performance curves.

Step logs are CSV files, one per (configuration, fold, seed) cell, with the
columns listed in STEP_COLUMNS. Completed cells are skipped on rerun, so an
interrupted grid resumes where it stopped.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .forest import ForestConfig
from .labels import LabelStore
from .loop import FrugalLoop, LoopConfig, RunOracle
from .preprocess import FoldSplit, fit_imputer, make_splits
from .scenario import Scenario
from .selector import SelectorEnsemble, algorithm_pairs, evaluate_selector, train_ensemble

FRUGAL_CONFIGS = [
    "uncertainty",
    "uncertainty-to",
    "uncertainty-dt",
    "uncertainty-to-dt",
    "random",
    "random-to",
    "random-dt",
    "random-to-dt",
]
PASSIVE_CONFIGS = ["passive", "passive-to"]

STEP_COLUMNS = [
    "config",
    "scenario",
    "fold",
    "seed",
    "step",
    "timeout_s",
    "labels",
    "cost_s",
    "cost_frac",
    "data_frac",
    "test_par10_s",
    "perf_ratio",
]

SUMMARY_COLUMNS = [
    "config",
    "ratio",
    "mean_cost_frac",
    "stderr_cost_frac",
    "mean_data_frac",
    "stderr_data_frac",
    "n_runs",
]

RATIO_GRID = [round(1.0 + 0.02 * k, 2) for k in range(51)]


def parse_config_id(config_id: str) -> dict:
    parts = config_id.split("-")
    if parts[0] not in ("uncertainty", "random", "passive"):
        raise ValueError(f"unknown configuration id '{config_id}'")
    return {
        "selection": parts[0],
        "to": "to" in parts[1:],
        "dt": "dt" in parts[1:],
    }


@dataclass
class ExperimentSpec:
    scenario: Scenario
    out_dir: Path
    configurations: list[str] = field(default_factory=lambda: list(FRUGAL_CONFIGS))
    folds: list[int] = field(default_factory=lambda: list(range(10)))
    seeds: list[int] = field(default_factory=lambda: list(range(5)))
    n_trees: int = 100
    batch_frac: float = 0.01
    dt_initial_frac: float = 1 / 64
    dt_growth: float = 2.0
    dt_window: int = 3
    dt_tolerance: float = 0.01
    jobs: int = 1

    def __post_init__(self):
        for name in ("configurations", "folds", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        for fold in self.folds:
            if fold not in range(10):
                raise ValueError(f"no fold {fold}: make_splits makes folds 0 to 9")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.out_dir = Path(self.out_dir)

    def loop_config(self, config_id: str, seed: int) -> LoopConfig:
        flags = parse_config_id(config_id)
        cutoff = self.scenario.cutoff
        return LoopConfig(
            selection=flags["selection"],
            timeout_predictor=flags["to"],
            dynamic_timeout=flags["dt"],
            batch_frac=self.batch_frac,
            seed=seed,
            forest=ForestConfig(n_trees=self.n_trees, seed=seed),
            dt_initial=cutoff * self.dt_initial_frac,
            dt_growth=self.dt_growth,
            dt_window=self.dt_window,
            dt_tolerance=self.dt_tolerance,
        )


def full_observation_store(scenario: Scenario, instances) -> tuple[LabelStore, float]:
    """Observations after running every (instance, algorithm) at full cutoff,
    with the total charged CPU-seconds (the passive labelling cost)."""
    oracle = RunOracle(scenario)
    store = LabelStore(scenario.instances, scenario.algorithms)
    cost = 0.0
    for inst in instances:
        for algo in scenario.algorithms:
            obs, charged = oracle.simulate(inst, algo, scenario.cutoff)
            store.record(inst, algo, obs)
            cost += charged
    return store, cost


def passive_ensemble(
    scenario: Scenario,
    fold: FoldSplit,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = 100,
) -> tuple[SelectorEnsemble, float]:
    """Selector trained on the full fold at cutoff, and its labelling cost."""
    store, cost = full_observation_store(scenario, fold.train)
    imputer = fit_imputer(scenario, fold.train)
    ensemble = train_ensemble(
        scenario,
        fold.train,
        store,
        imputer,
        ForestConfig(n_trees=n_trees, seed=seed),
        timeout_enabled=timeout_models,
        current_timeout=scenario.cutoff,
    )
    return ensemble, cost


def run_passive_baseline(
    scenario: Scenario,
    fold: FoldSplit,
    test_instances,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = 100,
) -> tuple[float, float]:
    """Test PAR10 and labelling cost of training on the full fold at cutoff."""
    ensemble, cost = passive_ensemble(scenario, fold, seed, timeout_models, n_trees)
    return evaluate_selector(ensemble, test_instances, scenario), cost


def _ratio(num: float, den: float) -> float:
    """num / den, where 0 / 0 is 1.0 (both ideal) and x / 0 is inf (never
    reached, as `summarize` counts it)."""
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def _write_rows(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=STEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    tmp.replace(path)


def _cell_path(out_dir: Path, config_id: str, fold: int, seed: int) -> Path:
    return Path(out_dir) / config_id / f"fold{fold:02d}_seed{seed}.csv"


def run_cell(spec: ExperimentSpec, config_id: str, fold_index: int, seed: int) -> Path:
    """Run one (configuration, fold, seed) cell and write its step log."""
    path = _cell_path(spec.out_dir, config_id, fold_index, seed)
    if path.exists():
        return path

    scenario = spec.scenario
    plan = make_splits(scenario, seed)
    fold = plan.folds[fold_index]

    common = {
        "config": config_id,
        "scenario": scenario.id,
        "fold": fold_index,
        "seed": seed,
    }
    rows: list[dict] = []
    if config_id in PASSIVE_CONFIGS:
        # The plain baseline's pairwise forests are the same as those of the
        # timeout-model ensemble, so one fit serves both.
        ensemble, cost = passive_ensemble(
            scenario, fold, seed, parse_config_id(config_id)["to"], spec.n_trees
        )
        test_par10 = evaluate_selector(ensemble, plan.test, scenario)
        passive_par10 = test_par10
        if ensemble.timeout_models is not None:
            passive_par10 = evaluate_selector(
                replace(ensemble, timeout_models=None), plan.test, scenario
            )
        n_cells = len(algorithm_pairs(scenario.algorithms)) * len(fold.train)
        rows.append(
            common
            | {
                "step": 1,
                "timeout_s": repr(scenario.cutoff),
                "labels": n_cells,
                "cost_s": repr(cost),
                "cost_frac": repr(1.0),
                "data_frac": repr(1.0),
                "test_par10_s": repr(test_par10),
                "perf_ratio": repr(_ratio(test_par10, passive_par10)),
            }
        )
    else:
        passive_par10, passive_cost = run_passive_baseline(
            scenario, fold, plan.test, seed, timeout_models=False, n_trees=spec.n_trees
        )
        loop = FrugalLoop(scenario, fold, plan.test, spec.loop_config(config_id, seed))
        for rec in loop.run():
            rows.append(
                common
                | {
                    "step": rec.step,
                    "timeout_s": repr(rec.timeout),
                    "labels": rec.requests,
                    "cost_s": repr(rec.cost),
                    "cost_frac": repr(_ratio(rec.cost, passive_cost)),
                    "data_frac": repr(rec.data_frac),
                    "test_par10_s": repr(rec.test_par10),
                    "perf_ratio": repr(_ratio(rec.test_par10, passive_par10)),
                }
            )
    _write_rows(path, rows)
    return path


def _run_cell_star(args):
    return run_cell(*args)


def run_grid(spec: ExperimentSpec, progress=None) -> list[Path]:
    """Run every grid cell; returns the step-log paths in grid order."""
    cells = [
        (spec, config_id, fold, seed)
        for config_id in spec.configurations
        for fold in spec.folds
        for seed in spec.seeds
    ]
    paths = []
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            for (s, config_id, fold, seed), path in zip(
                cells, pool.map(_run_cell_star, cells)
            ):
                paths.append(path)
                if progress:
                    progress(config_id, fold, seed, path)
    else:
        for cell in cells:
            path = run_cell(*cell)
            paths.append(path)
            if progress:
                progress(cell[1], cell[2], cell[3], path)
    return paths


def read_step_logs(log_dir) -> list[dict]:
    log_dir = Path(log_dir)
    rows = []
    for path in sorted(log_dir.rglob("*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rows.append(row)
    return rows


def summarize(step_rows: list[dict]) -> list[dict]:
    """Mean/stderr over runs of the minimum cost (and data) fraction needed to
    first reach each performance-ratio grid point; runs that never reach a
    point contribute fraction 1.0."""
    if not step_rows:
        raise ValueError("no step logs to summarize")

    runs: dict[tuple, list[dict]] = {}
    for row in step_rows:
        key = (row["config"], row["fold"], row["seed"])
        runs.setdefault(key, []).append(row)

    per_config: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for (config, _, _), rows in runs.items():
        rows.sort(key=lambda r: int(r["step"]))
        ratios = np.array([float(r["perf_ratio"]) for r in rows])
        cost_fracs = np.array([float(r["cost_frac"]) for r in rows])
        data_fracs = np.array([float(r["data_frac"]) for r in rows])
        min_cost = np.ones(len(RATIO_GRID))
        min_data = np.ones(len(RATIO_GRID))
        for g, target in enumerate(RATIO_GRID):
            hit = ratios <= target
            if hit.any():
                min_cost[g] = cost_fracs[hit].min()
                min_data[g] = data_fracs[hit].min()
        per_config.setdefault(config, []).append((min_cost, min_data))

    out = []
    for config in sorted(per_config):
        cost_curves = np.vstack([c for c, _ in per_config[config]])
        data_curves = np.vstack([d for _, d in per_config[config]])
        n = cost_curves.shape[0]

        def stderr(mat):
            if n < 2:
                return np.zeros(mat.shape[1])
            return mat.std(axis=0, ddof=1) / math.sqrt(n)

        mean_cost = cost_curves.mean(axis=0)
        mean_data = data_curves.mean(axis=0)
        se_cost = stderr(cost_curves)
        se_data = stderr(data_curves)
        for g, target in enumerate(RATIO_GRID):
            out.append(
                {
                    "config": config,
                    "ratio": repr(target),
                    "mean_cost_frac": repr(float(mean_cost[g])),
                    "stderr_cost_frac": repr(float(se_cost[g])),
                    "mean_data_frac": repr(float(mean_data[g])),
                    "stderr_data_frac": repr(float(se_data[g])),
                    "n_runs": n,
                }
            )
    return out


def write_summary(rows: list[dict], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_summary(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
