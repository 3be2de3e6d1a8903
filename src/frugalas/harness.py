"""Experiment orchestration: passive baselines, the configuration grid, and
aggregation of per-step logs into cost-vs-performance curves.

Step logs are CSV files, one per (configuration, fold, seed) cell, with the
columns listed in STEP_COLUMNS. A passive cell logs one record and a frugal
cell one per labelling round, and one row builder turns either into rows. Step
logs and summaries are written atomically (a temporary file, then a rename),
so completed cells are skipped on rerun and an interrupted grid resumes where
it stopped.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .forest import ForestConfig
from .labels import LabelStore
from .loop import CostLedger, FrugalLoop, LoopConfig
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
        if not 0 < self.dt_initial_frac <= 1:
            raise ValueError(f"dt_initial_frac must be in (0, 1], got {self.dt_initial_frac}")
        # LoopConfig checks the loop settings; fail here, before any cell runs.
        self.loop_config("uncertainty-dt", self.seeds[0])
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


def passive_ensemble(
    scenario: Scenario,
    fold: FoldSplit,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = 100,
) -> tuple[SelectorEnsemble, CostLedger]:
    """Selector trained on the full fold at cutoff, and the ledger that
    charged its labelling: every training instance run on every algorithm at
    the cutoff, before any model exists (step 0)."""
    ledger = CostLedger(scenario, LabelStore(scenario.instances, scenario.algorithms))
    for inst in fold.train:
        ledger.run(0, inst, scenario.algorithms, scenario.cutoff)
    imputer = fit_imputer(scenario, fold.train)
    ensemble = train_ensemble(
        scenario,
        fold.train,
        ledger.store,
        imputer,
        ForestConfig(n_trees=n_trees, seed=seed),
        timeout_enabled=timeout_models,
        current_timeout=scenario.cutoff,
    )
    return ensemble, ledger


def run_passive_baseline(
    scenario: Scenario,
    fold: FoldSplit,
    test_instances,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = 100,
) -> tuple[float, float]:
    """Test PAR10 and labelling cost of training on the full fold at cutoff."""
    ensemble, ledger = passive_ensemble(scenario, fold, seed, timeout_models, n_trees)
    return evaluate_selector(ensemble, test_instances, scenario), ledger.total


def _ratio(num: float, den: float) -> float:
    """num / den, where 0 / 0 is 1.0 (both ideal) and x / 0 is inf (never
    reached, as `summarize` counts it)."""
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def _write_csv(path, columns: list[str], rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
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

    # Records are (step, timeout, labels, cost, data fraction, test PAR10).
    if config_id in PASSIVE_CONFIGS:
        # The plain baseline's pairwise forests are the same as those of the
        # timeout-model ensemble, so one fit serves both.
        ensemble, ledger = passive_ensemble(
            scenario, fold, seed, parse_config_id(config_id)["to"], spec.n_trees
        )
        passive_cost = ledger.total
        passive_par10 = evaluate_selector(
            replace(ensemble, timeout_models=None), plan.test, scenario
        )
        test_par10 = passive_par10
        if ensemble.timeout_models is not None:
            test_par10 = evaluate_selector(ensemble, plan.test, scenario)
        n_cells = len(algorithm_pairs(scenario.algorithms)) * len(fold.train)
        records = [(1, scenario.cutoff, n_cells, passive_cost, 1.0, test_par10)]
    else:
        passive_par10, passive_cost = run_passive_baseline(
            scenario, fold, plan.test, seed, timeout_models=False, n_trees=spec.n_trees
        )
        loop = FrugalLoop(scenario, fold, plan.test, spec.loop_config(config_id, seed))
        records = [
            (r.step, r.timeout, r.requests, r.cost, r.data_frac, r.test_par10)
            for r in loop.run()
        ]
    rows = [
        {
            "config": config_id,
            "scenario": scenario.id,
            "fold": fold_index,
            "seed": seed,
            "step": step,
            "timeout_s": repr(timeout),
            "labels": labels,
            "cost_s": repr(cost),
            "cost_frac": repr(_ratio(cost, passive_cost)),
            "data_frac": repr(data_frac),
            "test_par10_s": repr(test_par10),
            "perf_ratio": repr(_ratio(test_par10, passive_par10)),
        }
        for step, timeout, labels, cost, data_frac, test_par10 in records
    ]
    _write_csv(path, STEP_COLUMNS, rows)
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
    parallel = spec.jobs > 1
    paths = []
    with ProcessPoolExecutor(max_workers=spec.jobs) if parallel else nullcontext() as pool:
        results = (pool.map if parallel else map)(_run_cell_star, cells)
        for (_, config_id, fold, seed), path in zip(cells, results):
            paths.append(path)
            if progress:
                progress(config_id, fold, seed, path)
    return paths


class ResultsError(ValueError):
    """A step log or summary CSV that lacks one of its columns or holds
    something other than a number in a number column."""


_INTEGER_COLUMNS = {"fold", "seed", "step", "labels", "n_runs"}


def _read_csv(path, columns: list[str]) -> list[dict]:
    """Rows of a CSV file as strings, once it has every one of `columns` and
    each of them but `config` and `scenario` holds a number in every row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ResultsError(f"{path}: no column {', '.join(missing)}")
    numbers = [c for c in columns if c not in ("config", "scenario")]
    for line, row in enumerate(rows, start=2):
        for column in numbers:
            try:
                (int if column in _INTEGER_COLUMNS else float)(row[column])
            except (TypeError, ValueError):
                raise ResultsError(f"{path}, line {line}: {column} is not a number") from None
    return rows


def read_step_logs(log_dir) -> list[dict]:
    """Rows of every step log under `log_dir`, read from the grid's layout
    `<log_dir>/<config>/foldNN_seedS.csv` only, so a summary or any other CSV
    beside them is never taken for a step log."""
    rows = []
    for path in sorted(Path(log_dir).glob("*/fold[0-9][0-9]_seed*.csv")):
        rows.extend(_read_csv(path, STEP_COLUMNS))
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
    _write_csv(path, SUMMARY_COLUMNS, rows)


def read_summary(path) -> list[dict]:
    return _read_csv(path, SUMMARY_COLUMNS)
